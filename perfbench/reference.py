"""Independent numpy reference for every experiment kind, and the output check.

Nothing here imports ``framesum``: frame bounds come from
``numpy.linalg.eigvalsh``, operator norms from ``numpy.linalg.svd``, the four
sum rules are re-derived from their formulas, and Gabor estimates from a dense
evaluation of ``G0 +- G1`` on one period.  The generator in ``workloads.py``
uses the same functions to pick inputs whose conditions hold by a clear margin.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

#: relative tolerance for oracle bounds, predictions and widths.
REL_TOL = 1e-9

#: stopping tolerance of the reconstruction iteration for a unit-norm target.
ALGO_STOP_TOL = 1e-12

#: Gabor agreement, relative to the reference upper bound; the program samples
#: 2**14 points plus a refinement, the reference below 2**13 plus breakpoints.
GABOR_REL_TOL = 2e-3

GABOR_POINTS = 2**13


# ---------------------------------------------------------------------------
# spec-document decoding


def scalar(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def vector(values) -> np.ndarray:
    return np.array([scalar(v) for v in values], dtype=complex)


def matrix(rows) -> np.ndarray:
    return np.array([[scalar(v) for v in row] for row in rows], dtype=complex)


def frame_vectors(frame_doc) -> np.ndarray:
    """Rows are the frame vectors."""
    return matrix(frame_doc["vectors"])


def encode_complex(arr: np.ndarray) -> list:
    """Nested ``[re, im]`` lists, exactly as the experiment schema reads them."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


# ---------------------------------------------------------------------------
# spectral reference


def spectrum_bounds(vectors: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of ``S = sum_k f_k f_k*`` for row vectors ``f_k``."""
    s = vectors.T @ vectors.conj()
    lam = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
    return float(lam[0]), float(lam[-1])


def width(lower: float, upper: float) -> float:
    return (upper - lower) / (upper + lower)


def singular_range(theta: np.ndarray) -> tuple[float, float]:
    sv = np.linalg.svd(theta, compute_uv=False)
    return float(sv.min()), float(sv.max())


def finite_sum_prediction(bounds, coefficients, pivot):
    """``(lower, upper, margin)`` of the weighted-sum rule pivoting on ``pivot``."""
    mags = np.abs(np.asarray(coefficients, dtype=complex))
    a = np.array([b[0] for b in bounds])
    b = np.array([b[1] for b in bounds])
    others = np.arange(len(bounds)) != pivot
    cross = float(np.sum(mags[others] * np.sqrt(b[others])))
    lhs = mags[pivot] * a[pivot] + float(np.sum(mags[others] ** 2 * a[others])) / mags[pivot]
    margin = lhs - 2.0 * math.sqrt(b[pivot]) * cross
    lower = float(np.sum(mags**2 * a)) - 2.0 * mags[pivot] * math.sqrt(b[pivot]) * cross
    upper = len(bounds) * float(np.sum(mags**2 * b))
    return lower, upper, margin


def finite_sum_best(bounds, coefficients):
    """Pivot with the largest holding lower bound, else the largest margin."""
    preds = [finite_sum_prediction(bounds, coefficients, j) for j in range(len(bounds))]
    holding = [j for j, p in enumerate(preds) if p[2] > 0.0 and p[0] > 0.0]
    if holding:
        j = max(holding, key=lambda i: preds[i][0])
    else:
        j = max(range(len(preds)), key=lambda i: preds[i][2])
    return j, preds[j]


def dual_sum_prediction(b1, b2):
    lower = b1[0] + b2[0] + 2.0
    return lower, b1[1] + b2[1] + 2.0, lower


def operator_sum_prediction(b1, b2, sv1, sv2):
    (m1, n1), (m2, n2) = sv1, sv2
    margin = b1[0] * m1**2 + b2[0] * m2**2 - 2.0 * math.sqrt(b1[1] * b2[1]) * n1 * n2
    upper = (math.sqrt(b1[1]) * n1 + math.sqrt(b2[1]) * n2) ** 2
    return margin, upper, margin


def perturbed_sum_prediction(alpha, beta, b1, b2):
    ia, sa = float(np.abs(alpha).min()), float(np.abs(alpha).max())
    ib, sb = float(np.abs(beta).min()), float(np.abs(beta).max())
    margin = ia**2 * b1[0] + ib**2 * b2[0] - 2.0 * sa * sb * math.sqrt(b1[1] * b2[1])
    upper = (sa * math.sqrt(b1[1]) + sb * math.sqrt(b2[1])) ** 2
    return margin, upper, margin


# ---------------------------------------------------------------------------
# Gabor reference


def window(pieces, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for p in pieces:
        mask = (x >= p["lo"]) & (x < p["hi"])
        values = p["alpha"] * x[mask] + p["beta"]
        if p["kind"] == "sqrt-affine":
            values = np.sqrt(np.maximum(values, 0.0))
        out[mask] = values
    return out


def lattice_of(doc) -> tuple[float, float]:
    if "lattice" in doc:
        return float(doc["lattice"]["a"]), float(doc["lattice"]["b"])
    wh = doc["wh"]
    return abs(float(wh["q0"])), abs(float(wh["P"]) * float(wh["p0"])) / (2.0 * math.pi)


def gabor_reference(pieces, a: float, b: float, points: int = GABOR_POINTS):
    """``(lower, upper, painless)`` from a dense evaluation of G0 -+ G1 on [0, a)."""
    lo = min(p["lo"] for p in pieces)
    hi = max(p["hi"] for p in pieces)
    breaks = np.array([p[e] for p in pieces for e in ("lo", "hi")]) % a
    x = np.unique(np.concatenate([np.arange(points) * (a / points), breaks]))
    x = x[x < a]
    n_range = range(math.floor((0.0 - hi) / a) - 1, math.ceil((a - lo) / a) + 2)
    k_max = math.ceil((hi - lo) * b)
    translates = np.array([window(pieces, x - n * a) for n in n_range])
    g0 = np.sum(translates**2, axis=0)
    g1 = np.zeros_like(x)
    for k in range(1, k_max + 1):
        for shift in (k / b, -k / b):
            shifted = np.array([window(pieces, x - n * a - shift) for n in n_range])
            g1 += np.abs(np.sum(translates * shifted, axis=0))
    painless = hi - lo <= 1.0 / b + 1e-12
    return float(np.min(g0 - g1)) / b, float(np.max(g0 + g1)) / b, painless


# ---------------------------------------------------------------------------
# output check


class _Problems(list):
    def close(self, what, got, want, abs_tol=0.0):
        if got is None or not math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=abs_tol):
            self.append(f"{what}: got {got!r}, reference {want!r}")

    def true(self, what, value):
        if value is not True:
            self.append(f"{what}: got {value!r}, want true")


def _pair(value) -> tuple[float, float]:
    return float(value[0]), float(value[1])


def _check_prediction(probs, payload, want):
    """Compare the oracle-basis prediction with ``(lower, upper, margin)``."""
    pred = payload.get("prediction_oracle", payload.get("prediction", {}))
    probs.true("prediction condition", pred.get("condition_holds"))
    probs.close("predicted lower", pred.get("lower"), want[0])
    probs.close("predicted upper", pred.get("upper"), want[1])


def _check_certified(probs, payload, built: np.ndarray):
    cert = payload.get("certification")
    if cert is None:
        probs.append("no certification block")
        return
    lo, hi = spectrum_bounds(built)
    probs.close("certified sum lower", cert["exact"]["lower"], lo)
    probs.close("certified sum upper", cert["exact"]["upper"], hi)
    probs.true("certified", cert.get("certified"))


def _two_frames(doc):
    return frame_vectors(doc["frame1"]), frame_vectors(doc["frame2"])


def _check_bounds(doc, payload, csv_text, probs):
    lo, hi = spectrum_bounds(frame_vectors(doc["frame"]))
    probs.close("oracle lower", payload["bounds"]["lower"], lo)
    probs.close("oracle upper", payload["bounds"]["upper"], hi)


def _check_width(doc, payload, csv_text, probs):
    got = [w["width"] for w in payload["widths"]]
    want = [width(*_pair(e["bounds"])) for e in doc["entries"]]
    if len(got) != len(want):
        probs.append(f"widths: got {len(got)}, want {len(want)}")
    for g, w in zip(got, want):
        probs.close("width", g, w, abs_tol=1e-12)


def _check_dual(doc, payload, csv_text, probs):
    if "frame" not in doc:
        _check_prediction(probs, payload, dual_sum_prediction(_pair(doc["bounds1"]), _pair(doc["bounds2"])))
        return
    f, g = frame_vectors(doc["frame"]), frame_vectors(doc["dual"])
    probs.true("verify_dual", payload.get("verify_dual", {}).get("is_dual"))
    _check_prediction(probs, payload, dual_sum_prediction(spectrum_bounds(f), spectrum_bounds(g)))
    _check_certified(probs, payload, f + g)


def _check_finite_sum(doc, payload, csv_text, probs):
    coeffs = [scalar(c) for c in doc["coefficients"]]
    if "frames" in doc:
        frames = [frame_vectors(fr) for fr in doc["frames"]]
        bounds = [spectrum_bounds(v) for v in frames]
    else:
        frames = None
        bounds = [_pair(e["bounds"] if isinstance(e, dict) else e) for e in doc["frame_bounds"]]
    pivot = doc.get("pivot", "best")
    if pivot == "best":
        _, want = finite_sum_best(bounds, coeffs)
    else:
        want = finite_sum_prediction(bounds, coeffs, pivot - 1)
    _check_prediction(probs, payload, want)
    if frames is not None:
        _check_certified(probs, payload, sum(c * v for c, v in zip(coeffs, frames)))


def _check_operator_sum(doc, payload, csv_text, probs):
    t1, t2 = matrix(doc["theta1"]), matrix(doc["theta2"])
    sv1, sv2 = singular_range(t1), singular_range(t2)
    if "frame1" not in doc:
        want = operator_sum_prediction(_pair(doc["bounds1"]), _pair(doc["bounds2"]), sv1, sv2)
        _check_prediction(probs, payload, want)
        return
    f, g = _two_frames(doc)
    want = operator_sum_prediction(spectrum_bounds(f), spectrum_bounds(g), sv1, sv2)
    _check_prediction(probs, payload, want)
    _check_certified(probs, payload, f @ t1.T + g @ t2.T)


def _check_perturbed_sum(doc, payload, csv_text, probs):
    alpha, beta = vector(doc["alpha"]), vector(doc["beta"])
    if "frame1" not in doc:
        want = perturbed_sum_prediction(alpha, beta, _pair(doc["bounds1"]), _pair(doc["bounds2"]))
        _check_prediction(probs, payload, want)
        return
    f, g = _two_frames(doc)
    want = perturbed_sum_prediction(alpha, beta, spectrum_bounds(f), spectrum_bounds(g))
    _check_prediction(probs, payload, want)
    _check_certified(probs, payload, alpha[:, None] * f + beta[:, None] * g)


def _check_gabor(doc, payload, csv_text, probs):
    a, b = lattice_of(doc)
    lower, upper, painless = gabor_reference(doc["generator"]["pieces"], a, b)
    est = payload["estimate"]
    for what, got, want in (("lower", est["lower"], lower), ("upper", est["upper"], upper)):
        if abs(float(got) - want) > GABOR_REL_TOL * upper:
            probs.append(f"gabor {what}: got {got!r}, dense reference {want!r}")
    if est["g1_identically_zero"] != painless:
        probs.append(f"gabor overlap flag: got {est['g1_identically_zero']!r}, want {painless!r}")


def _check_algo(doc, payload, csv_text, probs):
    max_iters = doc.get("max_iters", 60)
    runs = {r["label"]: r for r in payload["runs"]}
    for entry in doc["runs"]:
        got = runs.get(entry["label"])
        if got is None:
            probs.append(f"algo run {entry['label']!r} missing")
            continue
        given = entry.get("bounds", "oracle")
        pair = spectrum_bounds(frame_vectors(entry["frame"])) if given == "oracle" else _pair(given)
        delta = width(*pair)
        probs.close(f"algo {entry['label']} width", got["width"], delta, abs_tol=1e-12)
        # stopping early needs the tolerance; an envelope below it by max_iters
        # forbids running out of iterations
        must_converge = delta**max_iters <= ALGO_STOP_TOL
        stopped_early = got["iterations"] < max_iters
        if (stopped_early or must_converge) and not got["final_error"] <= ALGO_STOP_TOL:
            probs.append(
                f"algo {entry['label']}: stopped at k={got['iterations']} of {max_iters} with "
                f"error {got['final_error']!r}, not below {ALGO_STOP_TOL}"
            )
    if csv_text is None:
        probs.append("algo: no CSV written")
        return
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, body = rows[0], rows[1:]
    widths = {label: r["width"] for label, r in runs.items()}
    for col, name in enumerate(header):
        if not name.startswith("err_"):
            continue
        label = name[4:]
        for k, row in enumerate(body):
            if row[col] == "":
                continue
            err, env = float(row[col]), float(row[col + 1])
            if not math.isclose(env, widths[label] ** k, rel_tol=1e-9, abs_tol=1e-300):
                probs.append(f"algo {label} k={k}: envelope {env!r}, want width**k")
                break
            if err > env * (1.0 + 1e-9) + 1e-12:
                probs.append(f"algo {label} k={k}: error {err!r} above envelope {env!r}")
                break


_CHECKS = {
    "bounds": _check_bounds,
    "width": _check_width,
    "dual": _check_dual,
    "finite-sum": _check_finite_sum,
    "operator-sum": _check_operator_sum,
    "perturbed-sum": _check_perturbed_sum,
    "gabor": _check_gabor,
    "algo": _check_algo,
}


def check(doc: dict, payload: dict, csv_text: str | None = None) -> list[str]:
    """Problems found in one JSON report (empty when it is correct).

    The expected status is ``flagged`` exactly when the document records
    discrepancies, ``pass`` otherwise.
    """
    probs = _Problems()
    want_status = "flagged" if doc.get("discrepancies") else "pass"
    if payload.get("status") != want_status:
        probs.append(f"status {payload.get('status')!r}, recorded {want_status!r}: {payload.get('failures')}")
    try:
        _CHECKS[doc["kind"]](doc, payload, csv_text, probs)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        probs.append(f"malformed report: {type(exc).__name__}: {exc}")
    return probs
