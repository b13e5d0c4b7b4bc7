"""Seeded workloads: the experiment files the benchmark feeds to the CLI.

Each workload has a fixed schedule of slots (kind and size), so the mix of
work in a run does not depend on the seed; the seed and the experiment index
pick the numbers inside each file.  Parameters are chosen with numpy only,
through :mod:`reference`, and every sufficiency margin, certification and
Gabor lower bound is checked there before a file is written; a draw that
fails is resampled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

COMMANDS = {
    "bounds": "bounds",
    "dual": "dual",
    "finite-sum": "sum",
    "operator-sum": "op-sum",
    "perturbed-sum": "perturbed-sum",
    "gabor": "gabor",
    "algo": "algo",
    "width": "width",
}

#: fixed seed for the slot order, shared by every run of a workload.
SCHEDULE_SEED = 230609493

#: draws tried before a slot is declared impossible.
MAX_DRAWS = 200


@dataclass(frozen=True)
class Case:
    """One experiment file ready for ``framesum <command> --spec <path>``."""

    kind: str
    label: str
    doc: dict
    path: Path

    @property
    def command(self) -> str:
        return COMMANDS[self.kind]


class GenerationError(RuntimeError):
    """No draw satisfied a slot's margins."""


def _log_spaced(lo: int, hi: int, count: int) -> list[int]:
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def _shuffled(slots: list) -> list:
    order = np.random.default_rng(SCHEDULE_SEED).permutation(len(slots))
    return [slots[j] for j in order]


def _gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _phases(rng, n: int) -> np.ndarray:
    return np.exp(2j * math.pi * rng.random(n))


def _frame(v: np.ndarray, name: str) -> dict:
    return {"name": name, "vectors": ref.encode_complex(v)}


def _certifies(predicted, built: np.ndarray) -> bool:
    lo, hi = ref.spectrum_bounds(built)
    return predicted[0] <= lo * (1.0 - 1e-6) and predicted[1] >= hi * (1.0 + 1e-6)


class Workload:
    """Base: slot ``i % len(slots)`` drawn with ``rng([seed, stream, i])``.

    A run covers whole passes over ``slots``, so every run has the same mix.
    """

    name = ""
    why = ""
    slots: list = []

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def case(self, i: int, stream: int = 0) -> Case:
        """Experiment ``i``; another ``stream`` gives other numbers for the same slot."""
        slot = self.slots[i % len(self.slots)]
        rng = np.random.default_rng([self.seed, stream, i])
        for _ in range(MAX_DRAWS):
            doc = self.draw(rng, *slot)
            if doc is not None:
                break
        else:
            raise GenerationError(f"{self.name}: no valid draw for slot {slot} at index {i}")
        doc["label"] = f"{self.name}-{i:05d}-{doc['label']}"
        path = self.workdir / "case.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return Case(kind=doc["kind"], label=doc["label"], doc=doc, path=path)

    def draw(self, rng, *slot) -> dict | None:
        raise NotImplementedError


def _spectral_slots() -> list:
    slots = []
    for kind, d_max in (
        ("bounds", 48),
        ("dual", 32),
        ("finite-sum", 24),
        ("operator-sum", 24),
        ("perturbed-sum", 32),
    ):
        slots.extend((kind, d) for d in _log_spaced(8, d_max, 6))
    return _shuffled(slots)


class SpectralSums(Workload):
    name = "spectral-sums"
    why = "eigensolves of frames with 2d vectors, d 8-48, and large JSON parse dominate; exercises linalg, frames and sums"
    slots = _spectral_slots()

    def draw(self, rng, kind, d):
        return getattr(self, "_" + kind.replace("-", "_"))(rng, d)

    @staticmethod
    def _bounds(rng, d):
        v = _gaussian(rng, (2 * d, d))
        return {"kind": "bounds", "label": f"d{d}", "frame": _frame(v, "F")}

    @staticmethod
    def _dual(rng, d):
        f = _gaussian(rng, (2 * d, d))
        s = f.T @ f.conj()
        g = np.linalg.solve(s, f.T).T  # canonical dual rows S^-1 f_k
        if np.linalg.norm(g.T @ f.conj() - np.eye(d), 2) > 1e-11:
            return None
        if not _certifies(ref.dual_sum_prediction(ref.spectrum_bounds(f), ref.spectrum_bounds(g)), f + g):
            return None
        return {"kind": "dual", "label": f"d{d}", "frame": _frame(f, "F"), "dual": _frame(g, "G")}

    @staticmethod
    def _finite_sum(rng, d):
        k = min(16, max(2, round(16 * (8 / d) ** 2)))
        frames = [_gaussian(rng, (2 * d, d)) for _ in range(k)]
        bounds = [ref.spectrum_bounds(v) for v in frames]
        pivot = int(rng.integers(k))
        raw = rng.uniform(0.5, 1.0, k)
        others = np.arange(k) != pivot
        a_j, b_j = bounds[pivot]
        cross = float(np.sum(raw[others] * np.sqrt([b[1] for b in bounds])[others]))
        scale = rng.uniform(0.2, 0.6) * a_j / (2.0 * math.sqrt(b_j) * cross)
        mags = np.where(others, scale * raw, 1.0)
        coeffs = mags * _phases(rng, k)
        _, pred = ref.finite_sum_best(bounds, coeffs)
        if pred[2] < 0.3 * a_j or pred[0] < 0.3 * a_j:
            return None
        if not _certifies(pred, sum(c * v for c, v in zip(coeffs, frames))):
            return None
        return {
            "kind": "finite-sum",
            "label": f"d{d}-k{k}",
            "frames": [_frame(v, f"F{i + 1}") for i, v in enumerate(frames)],
            "coefficients": ref.encode_complex(coeffs),
        }

    @staticmethod
    def _operator_sum(rng, d):
        f, g = _gaussian(rng, (2 * d, d)), _gaussian(rng, (2 * d, d))
        b1, b2 = ref.spectrum_bounds(f), ref.spectrum_bounds(g)
        t1 = _unitary(rng, d) @ np.diag(rng.uniform(0.8, 1.25, d)) @ _unitary(rng, d)
        t2 = _unitary(rng, d) @ np.diag(rng.uniform(0.5, 1.0, d)) @ _unitary(rng, d)
        sv1 = ref.singular_range(t1)
        target = rng.uniform(0.2, 0.6) * b1[0] * sv1[0] ** 2 / (2.0 * math.sqrt(b1[1] * b2[1]) * sv1[1])
        t2 *= target / ref.singular_range(t2)[1]
        pred = ref.operator_sum_prediction(b1, b2, sv1, ref.singular_range(t2))
        if pred[2] < 0.3 * b1[0] * sv1[0] ** 2 or not _certifies(pred, f @ t1.T + g @ t2.T):
            return None
        return {
            "kind": "operator-sum",
            "label": f"d{d}",
            "frame1": _frame(f, "F"),
            "frame2": _frame(g, "G"),
            "theta1": ref.encode_complex(t1),
            "theta2": ref.encode_complex(t2),
        }

    @staticmethod
    def _perturbed_sum(rng, d):
        n = 2 * d
        f, g = _gaussian(rng, (n, d)), _gaussian(rng, (n, d))
        b1, b2 = ref.spectrum_bounds(f), ref.spectrum_bounds(g)
        alpha = rng.uniform(0.8, 1.25, n) * _phases(rng, n)
        beta = rng.uniform(0.5, 1.0, n) * _phases(rng, n)
        ia, sa = np.abs(alpha).min(), np.abs(alpha).max()
        beta *= rng.uniform(0.2, 0.6) * ia**2 * b1[0] / (2.0 * sa * math.sqrt(b1[1] * b2[1]) * np.abs(beta).max())
        pred = ref.perturbed_sum_prediction(alpha, beta, b1, b2)
        if pred[2] < 0.3 * ia**2 * b1[0] or not _certifies(pred, alpha[:, None] * f + beta[:, None] * g):
            return None
        return {
            "kind": "perturbed-sum",
            "label": f"d{d}",
            "frame1": _frame(f, "F"),
            "frame2": _frame(g, "G"),
            "alpha": ref.encode_complex(alpha),
            "beta": ref.encode_complex(beta),
        }


class GaborWindows(Workload):
    name = "gabor-windows"
    why = "window estimates on lattices, 3/4 on the grid path and 1/4 painless closed form; only gabor works, linalg never runs"
    # four slots per piece count, the last of each four painless
    slots = _shuffled([(1 + block, j == 3) for block in range(6) for j in range(4)])

    def draw(self, rng, n_pieces, painless):
        length = rng.uniform(0.8, 2.0)
        steps = rng.uniform(0.5, 1.5, n_pieces)
        cuts = length * np.concatenate([[0.0], np.cumsum(steps) / np.sum(steps)])
        # continuous window: interior values of order one, tapered ends
        values = np.concatenate([[rng.uniform(0.05, 0.35)], rng.uniform(0.6, 1.5, n_pieces - 1), [rng.uniform(0.05, 0.35)]])
        pieces = []
        for lo, hi, v0, v1 in zip(cuts, cuts[1:], values, values[1:]):
            kind = "affine" if rng.random() < 0.6 else "sqrt-affine"
            if kind == "sqrt-affine":
                v0, v1 = v0 * v0, v1 * v1  # radicand values at the ends
            alpha = (v1 - v0) / (hi - lo)
            pieces.append(
                {"lo": float(lo), "hi": float(hi), "kind": kind, "alpha": float(alpha), "beta": float(v0 - alpha * lo)}
            )
        a = length * rng.uniform(0.4, 0.8)
        b = (rng.uniform(0.5, 0.95) if painless else rng.uniform(1.1, 1.5)) / length
        lower, upper, exact = ref.gabor_reference(pieces, a, b)
        if exact != painless or lower < 0.1 * upper:
            return None
        doc = {"kind": "gabor", "label": f"p{n_pieces}-{'painless' if painless else 'overlap'}", "generator": {"pieces": pieces}}
        if painless and rng.random() < 0.5:
            # group parameters mapping onto the same lattice: a = |q0|, b = |P p0| / 2 pi
            doc["wh"] = {"P": 1.0, "Q": float(rng.uniform(-1, 1)), "p0": 2.0 * math.pi * b, "q0": -a}
        else:
            doc["lattice"] = {"a": a, "b": b}
        return doc


class AlgoIterate(Workload):
    name = "algo-iterate"
    why = "relaxed frame iteration to 1e-12 at set condition numbers, d 4-16, with CSV output; exercises algorithm and cli.emit_csv"
    slots = _shuffled([(d, kappa) for d in (4, 5, 6, 8, 10, 12, 16) for kappa in (5.0, 12.0, 30.0, 80.0)])

    def draw(self, rng, d, kappa):
        scale = rng.uniform(0.5, 2.0)
        lam = np.concatenate([[1.0, kappa], rng.uniform(1.0, kappa, d - 2)]) * scale
        u = np.linalg.qr(_gaussian(rng, (2 * d, d)))[0]
        v = u @ np.diag(np.sqrt(lam)) @ _unitary(rng, d)
        lo, hi = ref.spectrum_bounds(v)
        loose = (lo * rng.uniform(0.6, 0.9), hi * rng.uniform(1.1, 1.4))
        delta = ref.width(*loose)
        max_iters = math.ceil(1.2 * math.log(ref.ALGO_STOP_TOL) / math.log(delta)) + 20
        return {
            "kind": "algo",
            "label": f"d{d}-kappa{kappa:g}",
            "runs": [
                {"label": "oracle", "frame": _frame(v, "F"), "bounds": "oracle"},
                {"label": "loose", "frame": _frame(v, "F"), "bounds": list(loose)},
            ],
            "max_iters": max_iters,
        }


class PaperFixtures:
    """The bundled fixtures, copied out of the package, in seeded pass order."""

    name = "paper-fixtures"
    why = "the 19 bundled reference fixtures, d <= 3, in repeated passes; fixed per-experiment cost in cli and experiments dominates"

    @property
    def slots(self) -> list:
        return self.cases

    def __init__(self, seed: int, workdir: Path, fixtures: dict[str, str]):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cases = []
        for name in sorted(fixtures):
            path = self.workdir / name
            path.write_text(fixtures[name], encoding="utf-8")
            doc = json.loads(fixtures[name])
            self.cases.append(Case(kind=doc["kind"], label=doc.get("label", path.stem), doc=doc, path=path))

    def case(self, i: int, stream: int = 0) -> Case:
        n = len(self.cases)
        order = np.random.default_rng([self.seed, i // n]).permutation(n)
        return self.cases[order[i % n]]


WORKLOADS = {w.name: w for w in (SpectralSums, GaborWindows, AlgoIterate, PaperFixtures)}
