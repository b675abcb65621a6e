"""Independent checks of ringfisher's outputs.

Nothing here imports ringfisher. Eigenvalues come from ``np.fft.rfft`` of the
kernel's first row, the torus optimum from brute-force enumeration of every
simplex vertex and edge, and firing-field maxima from this file's own count.
Each check returns a list of problems; an empty list means the output passed.

Statistical checks compare a Monte Carlo variance with its bound and allow
``Z`` standard errors, the standard error being that of the bound under the
null hypothesis (a sample variance of T Gaussian values has relative standard
error sqrt(2 / (T - 1))).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

Z = 5.0
REL = 1e-9  # closed-form quantities (eigenvalues, spectral sums)
REL_QUAD = 1e-8  # quantities built from n-term quadratic forms
TIE = 1e-12  # eigenvalue ties break toward the smaller frequency


def ring_row(n: int, values) -> np.ndarray:
    """First row of the circulant matrix: entry j is the value at ring distance min(j, n - j)."""
    values = np.asarray(values, dtype=float)
    j = np.arange(n)
    return values[np.minimum(j, n - j)]


def ring_eigenvalues(n: int, values) -> np.ndarray:
    """Eigenvalues at frequencies 0..n//2 as the real rfft of the first row."""
    return np.fft.rfft(ring_row(n, values)).real


def paired(n: int) -> np.ndarray:
    """Frequencies carrying a (cos, sin) eigenvector pair: 1..ceil(n/2) - 1."""
    return np.arange(1, (n + 1) // 2)


def k_star(n: int, lams: np.ndarray) -> int:
    ks = paired(n)
    scores = lams[ks]
    return int(ks[scores <= scores.min() + TIE].min())


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def variance_problem(label: str, variance: float, bound: float, trials: int) -> list[str]:
    stderr = bound * math.sqrt(2.0 / (trials - 1))
    z = (variance - bound) / stderr
    return [] if abs(z) <= Z else [f"{label}: variance {variance!r} is {z:+.2f} standard errors from {bound!r}"]


def check_decomposition(csv_text: str, n: int, lams: np.ndarray) -> list[str]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    problems: list[str] = []
    if not rows or rows[0] != ["k", "lambda", "paired"]:
        return ["decomposition CSV header is wrong"]
    body = rows[1:]
    _expect(problems, len(body) == lams.size, f"decomposition has {len(body)} rows, expected {lams.size}")
    if problems:
        return problems
    got = np.array([float(r[1]) for r in body])
    ks = np.array([int(r[0]) for r in body])
    flags = np.array([r[2] == "true" for r in body])
    _expect(problems, np.array_equal(ks, np.arange(lams.size)), "decomposition frequencies are not 0..n//2")
    scale = np.max(np.abs(lams))
    err = float(np.max(np.abs(got - lams)))
    _expect(problems, err <= REL * scale, f"eigenvalues differ from the rfft oracle by {err:.3g}")
    expect_paired = (ks > 0) & (ks < (n + 1) // 2)
    _expect(problems, np.array_equal(flags, expect_paired), "paired flags are wrong")
    return problems


def check_sim_result(result: dict, n: int, lams: np.ndarray, config: dict) -> list[str]:
    """Information, bound and the empirical variance of one ``simulate`` result."""
    problems: list[str] = []
    power = float(config.get("power", 1.0))
    snapshots = 2.0 if config["mode"] == "two_snapshot" else 1.0
    info = power / lams[k_star(n, lams)]
    for key in ("mode", "estimator", "trials", "seed"):
        _expect(problems, result.get(key) == config[key], f"result {key} {result.get(key)!r} != {config[key]!r}")
    _expect(problems, _close(result["fisher_information"], info, REL),
            f"fisher_information {result['fisher_information']!r} != P/lambda_k* {info!r}")
    bound = snapshots / info
    _expect(problems, _close(result["crb_reference"], bound, REL),
            f"crb_reference {result['crb_reference']!r} != {snapshots:g}/I {bound!r}")
    problems += variance_problem("simulate", result["empirical_variance"], bound, config["trials"])
    return problems


def check_trial_dump(csv_text: str, result: dict) -> list[str]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != "trial,estimate":
        return ["trial dump header is wrong"]
    estimates = np.array([float(line.split(",")[1]) for line in lines[1:]])
    problems: list[str] = []
    _expect(problems, estimates.size == result["trials"], f"trial dump has {estimates.size} rows, expected {result['trials']}")
    if problems:
        return problems
    spread = math.sqrt(result["empirical_variance"])
    _expect(problems, abs(float(np.mean(estimates)) - result["mean_estimate"]) <= 1e-9 * spread,
            "trial dump mean differs from mean_estimate")
    _expect(problems, _close(float(np.var(estimates, ddof=1)), result["empirical_variance"], 1e-9),
            "trial dump variance differs from empirical_variance")
    return problems


def torus_bruteforce_max(n: int, lams: np.ndarray, power: float, block: int = 256) -> float:
    """Largest (u.w)(v.w) over every vertex and every edge of the power simplex.

    On the edge w = P (t e_i + (1 - t) e_j) the objective is a quadratic in t;
    its interior stationary point is a maximum when the leading coefficient is
    negative. The pairs are evaluated in row blocks to bound memory.
    """
    ks = paired(n)
    u = 1.0 / lams[ks]
    v = u / ks.astype(float) ** 2
    best = float(np.max(u * v))
    for lo in range(0, u.size, block):
        ui, vi = u[lo:lo + block, None], v[lo:lo + block, None]
        du, dv = ui - u[None, :], vi - v[None, :]
        quad = du * dv
        lin = du * v[None, :] + u[None, :] * dv
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(quad < 0.0, -lin / (2.0 * quad), 0.0)
        t = np.clip(t, 0.0, 1.0)
        values = (u[None, :] + t * du) * (v[None, :] + t * dv)
        best = max(best, float(values.max()))
    return power * power * best


def _allocation_powers(allocation: dict) -> dict[int, float]:
    return {int(e["frequency"]): float(e["amplitude"]) ** 2 for e in allocation["entries"]}


def check_optimize(payload: dict, n: int, lams: np.ndarray, power: float, dim: int, method: str) -> list[str]:
    search = payload["search"]
    problems: list[str] = []
    powers = _allocation_powers(search["allocation"])
    achieved = float(search["achieved_fi"])
    _expect(problems, _close(sum(powers.values()), power, 1e-9), "allocation does not spend the power budget")
    _expect(problems, search["method"] == method, f"method {search['method']!r}, expected {method!r}")
    margin = search["audit_margin"]
    _expect(problems, margin is None or margin <= 0.0, f"audit found a better allocation (margin {margin!r})")
    if dim == 1:
        ks = k_star(n, lams)
        _expect(problems, list(powers) == [ks], f"1D optimum at {list(powers)}, expected k*={ks}")
        _expect(problems, _close(achieved, power / lams[ks], REL), f"achieved_fi {achieved!r} != P/lambda_k*")
        return problems
    value_u = sum(p / lams[k] for k, p in powers.items())
    value_v = sum(p / (k * k * lams[k]) for k, p in powers.items())
    _expect(problems, _close(achieved, value_u * value_v, REL), "achieved_fi differs from its allocation's value")
    brute = torus_bruteforce_max(n, lams, power)
    _expect(problems, brute <= achieved * (1.0 + REL), f"brute-force optimum {brute!r} beats achieved_fi {achieved!r}")
    _expect(problems, achieved <= brute * (1.0 + REL), f"achieved_fi {achieved!r} exceeds the brute-force optimum {brute!r}")
    fisher = payload["fisher"]
    _expect(problems, _close(fisher["i_x"], achieved, REL_QUAD), "fisher.i_x differs from achieved_fi")
    _expect(problems, _close(fisher["product_form"], achieved, REL_QUAD), "fisher.product_form differs from achieved_fi")
    return problems


def check_curves(csv_text: str, n: int, lams: np.ndarray, power: float, samples: int) -> list[str]:
    """Optimal 1D curves: neuron i is (T/k) sqrt(2/n) sin(k theta - 2 pi k i / n)."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if len(rows) != samples + 1 or len(rows[0]) != n + 1:
        return [f"curves CSV is {len(rows)} x {len(rows[0]) if rows else 0}, expected {samples + 1} x {n + 1}"]
    table = np.array(rows[1:], dtype=float)
    k = k_star(n, lams)
    theta = 2.0 * math.pi * np.arange(samples) / samples
    phase = 2.0 * math.pi * k * np.arange(n) / n
    expected = math.sqrt(power) / k * math.sqrt(2.0 / n) * np.sin(k * theta[:, None] - phase[None, :])
    err = float(np.max(np.abs(table[:, 1:] - expected)))
    problems: list[str] = []
    _expect(problems, np.allclose(table[:, 0], theta, rtol=0, atol=1e-12), "curves theta column is wrong")
    _expect(problems, err <= 1e-9 * max(1.0, float(np.max(np.abs(expected)))), f"curves differ from the closed form by {err:.3g}")
    return problems


def check_fisher(payload: dict, n: int, lams: np.ndarray, power: float, dim: int) -> list[str]:
    problems: list[str] = []
    info = power / lams[k_star(n, lams)]
    _expect(problems, _close(payload["fi_spectral"], info, REL), f"fi_spectral {payload['fi_spectral']!r} != P/lambda_k* {info!r}")
    worst = max(abs(v - payload["fi_spectral"]) for v in payload["fi_theta"])
    _expect(problems, worst <= REL_QUAD * info, f"fi_theta differs from fi_spectral by {worst:.3g}")
    _expect(problems, _close(payload["crb"], 1.0 / info, REL), "crb is not 1/fi_spectral")
    if dim == 2:
        _expect(problems, _close(payload["i_x"], payload["product_form"], REL_QUAD), "i_x differs from product_form")
        _expect(problems, abs(payload["i_xy"]) <= REL_QUAD * abs(payload["i_x"]), "cross term i_xy is not zero")
    return problems


def read_pgm(data: bytes) -> tuple[int, int, np.ndarray]:
    header = data.split(b"\n", 3)
    if len(header) != 4 or header[0] != b"P5" or header[2] != b"255":
        raise ValueError("not an 8-bit binary graymap")
    cols, rows = (int(x) for x in header[1].split())
    return cols, rows, np.frombuffer(header[3], dtype=np.uint8)


def toroidal_maxima(field: np.ndarray) -> int:
    """Count maxima with 8-neighbour, wrap-around adjacency.

    A maximum is a connected plateau of equal values in which no pixel has a
    strictly greater neighbour and some pixel has a strictly smaller one, so a
    constant field has none.
    """
    shifts = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]
    greater = np.zeros(field.shape, dtype=bool)
    smaller = np.zeros(field.shape, dtype=bool)
    for a, b in shifts:
        neighbour = np.roll(field, (a, b), axis=(0, 1))
        greater |= neighbour > field
        smaller |= neighbour < field
    rows, cols = field.shape
    seen: set[tuple[int, int]] = set()
    count = 0
    for start in zip(*np.nonzero(~greater)):
        if start in seen:
            continue
        seen.add(start)
        plateau, frontier = [start], [start]
        while frontier:
            i, j = frontier.pop()
            for a, b in shifts:
                q = ((i + a) % rows, (j + b) % cols)
                if q not in seen and field[q] == field[start]:
                    seen.add(q)
                    plateau.append(q)
                    frontier.append(q)
        index = tuple(np.array(plateau).T)
        count += bool(not greater[index].any() and smaller[index].any())
    return count


def check_field(pgm: bytes, csv_text: str, res: int, n: int, lams: np.ndarray) -> list[str]:
    problems: list[str] = []
    cols, rows, pixels = read_pgm(pgm)
    _expect(problems, (cols, rows) == (res, res) and pixels.size == res * res,
            f"graymap is {cols} x {rows} with {pixels.size} pixels, expected {res} x {res}")
    field = np.array(csv_text.replace("\n", ",").rstrip(",").split(","), dtype=float)
    if field.size != res * res:
        return problems + [f"field CSV holds {field.size} values, expected {res * res}"]
    k = k_star(n, lams)
    maxima = toroidal_maxima(field.reshape(res, res))
    _expect(problems, maxima == k * k, f"field has {maxima} toroidal maxima, expected k*^2 = {k * k}")
    return problems


def check_path_integration(report: dict, n: int, lams: np.ndarray, spec: dict) -> list[str]:
    """Single-step variance at 2/I and final variance at steps times that (ratio 1)."""
    trials, steps = spec["trials"], spec["steps"]
    problems: list[str] = []
    _expect(problems, report["steps"] == steps and report["trials"] == trials, "report steps/trials differ from the request")
    _expect(problems, len(report["variance_by_step"]) == steps, "variance_by_step has the wrong length")
    bound = 2.0 / (spec["power"] / lams[k_star(n, lams)])
    problems += variance_problem("single step", report["single_step_variance"], bound, trials)
    # ratio of two variances, each with relative standard error sqrt(2 / (T - 1))
    ratio_stderr = math.sqrt(4.0 / (trials - 1))
    z = (report["linear_growth_ratio"] - 1.0) / ratio_stderr
    _expect(problems, abs(z) <= Z, f"linear_growth_ratio {report['linear_growth_ratio']!r} is {z:+.2f} standard errors from 1")
    return problems


def check_torus_draws(draws: np.ndarray, n: int, values, expected_rows: int) -> list[str]:
    """Per-coordinate variance c0^2 and one-step neighbour covariance c0 c1 on each axis.

    For a Gaussian field the pooled estimators' standard error is at most
    S sqrt(2 / draws) / n, with S the sum of squared covariances over ring
    offsets (the axis kernel's squared row sum).
    """
    problems: list[str] = []
    if draws.shape != (expected_rows, n * n):
        return [f"torus draws have shape {draws.shape}, expected {(expected_rows, n * n)}"]
    x = draws.reshape(expected_rows, n, n)
    c0, c1 = float(values[0]), float(values[1])
    s = float(np.sum(ring_row(n, values) ** 2))
    stderr = s * math.sqrt(2.0 / expected_rows) / n
    checks = (
        ("variance", float(np.mean(x * x)), c0 * c0),
        ("row-neighbour covariance", float(np.mean(x * np.roll(x, 1, axis=1))), c0 * c1),
        ("column-neighbour covariance", float(np.mean(x * np.roll(x, 1, axis=2))), c0 * c1),
    )
    for label, got, want in checks:
        z = (got - want) / stderr
        _expect(problems, abs(z) <= Z, f"torus {label} {got!r} is {z:+.2f} standard errors from {want!r}")
    return problems
