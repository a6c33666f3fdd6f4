"""Output checks of one pipeline run, at the acceptance suite's pinned tolerances.

Each check reads the files the run wrote (CSV and JSON report) plus the
config it was given, and returns a list of problems; an empty list means
the run's outputs are correct.  The checks use only the standard library,
so they do not share code, and therefore defects, with the package.
"""

import csv
import json
import math

CSV_COLUMNS = ["t", "S_vn_A", "S2_A", "S_as_A", "I_AB", "lambda_A_alg", "lambda_A_vol",
               "bound_lower", "bound_upper", "source", "trusted"]
LN_E_OVER_2 = 1.0 - math.log(2.0)
# metastable: every minimized right-hand side stays under 2 ln(e/2)
BOUND_CEILING = 2.0 * LN_E_OVER_2
BOUND_SLACK = 1e-6
EXPONENT_REL_TOL = 0.02        # algebraic vs closed form / volumetric
FLOQUET_ABS_TOL = 5e-3         # algebraic vs Floquet multipliers
LOG_SLOPE_TOL = 0.05           # metastable S2(A) against ln t
ORACLE_REL_TOL = 0.10          # oracle slope vs exponent
SLOPE_REPRO_TOL = 1e-9         # report slope re-fitted from the CSV rows
ROUNDOFF = 1e-9


def expected_times(t_final, dt, store_every):
    """Sample times the pipeline stores: t=0, every store_every-th step, the last step."""
    n_steps = max(1, int(round(t_final / dt)))
    dt_eff = t_final / n_steps
    return [0.0] + [k * dt_eff for k in range(1, n_steps + 1)
                    if k % store_every == 0 or k == n_steps]


def inverted_pair_lambda(params, indices):
    """Closed-form subsystem exponent of the inverted pair over the selected indices."""
    a, b, g = params["kappa1"] ** 2, params["kappa2"] ** 2, params["coupling"]
    mid, half = 0.5 * (a + b), math.hypot(0.5 * (a - b), g)
    hi, lo = math.sqrt(mid + half), math.sqrt(mid - half)
    exponents = [hi, lo, -lo, -hi]
    return sum(exponents[i] for i in indices)


def ols_slope(xs, ys):
    n = len(xs)
    x_mean, y_mean = sum(xs) / n, sum(ys) / n
    ss = sum((x - x_mean) ** 2 for x in xs)
    return sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / ss


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def read_outputs(csv_path, report_path):
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(report_path) as fh:
        report = json.load(fh)
    return rows, report


def check_csv(doc, rows, report):
    """Schema, sample grid, per-row identities, and agreement with the report."""
    problems = []
    if not rows or rows[0] != CSV_COLUMNS:
        return ["CSV header differs from the fixed schema"]
    body = rows[1:]
    run = doc["run"]
    times = expected_times(run["t_final"], run["dt"], run.get("store_every", 1))
    if len(body) != len(times):
        return [f"CSV has {len(body)} rows, expected {len(times)}"]
    fock = doc["initial_state"]["type"] == "fock"
    sections = report["sections"]
    exponent = sections["oracle"]["exponent"] if fock else sections["exponent"]
    n_a = doc["modes"]["subsystem"]
    parsed = []
    for i, (row, t_expected) in enumerate(zip(body, times)):
        if len(row) != len(CSV_COLUMNS):
            return [f"CSV row {i} has {len(row)} cells"]
        try:
            t, s_vn, s2, s_as, i_ab, lam_alg = (float(x) for x in row[:6])
            lower, upper = float(row[7]), float(row[8])
        except ValueError:
            return [f"CSV row {i} has a non-numeric cell"]
        values = (t, s_vn, s2, s_as, i_ab, lam_alg, lower, upper)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"row {i}: non-finite value")
        if abs(t - t_expected) > ROUNDOFF * max(1.0, t_expected):
            problems.append(f"row {i}: t={t} off the grid value {t_expected}")
        if row[9] != ("fock" if fock else "gaussian") or row[10] not in ("0", "1"):
            problems.append(f"row {i}: bad source/trusted cells")
        if lam_alg != exponent["lambda_alg"]:
            problems.append(f"row {i}: lambda_A_alg differs from the report")
        # pure global state: I(A:B) = 2 S(A); Gaussian rows store exactly 2 S
        if abs(i_ab - 2.0 * s_vn) > (ROUNDOFF if fock else 0.0):
            problems.append(f"row {i}: I_AB != 2 S_vn_A")
        if s_vn < s2 - ROUNDOFF:
            problems.append(f"row {i}: S_vn_A below S2_A")
        # relative slack: near nu = 1e6 the entropy formula cancels ~eps*nu, about
        # 1e-9 nats at S ~ 14, documented in entgrowth.entropy.mode_entropy
        if not fock and s_vn - s2 > n_a * LN_E_OVER_2 + ROUNDOFF * max(1.0, s_vn):
            problems.append(f"row {i}: S_vn_A - S2_A above the Gaussian corridor")
        if lower > upper + ROUNDOFF:
            problems.append(f"row {i}: bound_lower above bound_upper")
        parsed.append((t, s_vn, row[10] == "1"))
    if problems:
        return problems[:5]

    fit = sections["oracle"] if fock else sections["slopes"]
    slope = fit["slope"] if fock else fit["s_vn_slope"]
    lo, hi = fit["window"]
    window = [(t, s) for t, s, trusted in parsed
              if lo - 1e-12 <= t <= hi + 1e-12 and (trusted or not fock)]
    refit = ols_slope([t for t, _ in window], [s for _, s in window])
    if not _close(refit, slope, SLOPE_REPRO_TOL):
        problems.append(f"entropy slope re-fitted from the CSV ({refit!r}) "
                        f"differs from the report ({slope!r})")
    return problems


def check_report(doc, report):
    """The claim each workload's scenario exists to check."""
    if not report.get("ok"):
        return [f"report not ok: {report.get('failures')}"]
    sections = report["sections"]
    name = doc["hamiltonian"]["name"]
    params = doc["hamiltonian"]["params"]
    problems = []
    if name == "inverted_pair":
        exp = sections["exponent"]
        closed = inverted_pair_lambda(params, exp["indices"])
        if abs(exp["lambda_alg"] - closed) > EXPONENT_REL_TOL * abs(closed):
            problems.append(f"lambda_alg {exp['lambda_alg']} vs closed form {closed}")
    elif name == "coupled_chain":
        exp = sections["exponent"]
        if abs(exp["lambda_alg"] - exp["lambda_vol"]) > EXPONENT_REL_TOL * abs(exp["lambda_alg"]):
            problems.append(f"lambda_alg {exp['lambda_alg']} vs lambda_vol {exp['lambda_vol']}")
    elif name == "parametric_drive":
        lam_alg = sections["exponent"]["lambda_alg"]
        lam_floquet = sections["floquet"]["lambda_from_multipliers"]
        if abs(lam_alg - lam_floquet) > FLOQUET_ABS_TOL:
            problems.append(f"lambda_alg {lam_alg} vs Floquet {lam_floquet}")
    elif name == "metastable":
        bounds = sections["bounds"]
        if len(bounds) != len(doc["run"]["bound_times"]):
            problems.append("bound count differs from bound_times")
        for entry in bounds:
            if not entry["value"] <= BOUND_CEILING + BOUND_SLACK:
                problems.append(f"bound {entry['value']} at t={entry['t']} above 2 ln(e/2)")
        slope = sections["metastable"]["log_slope"]
        if abs(slope - 1.0) > LOG_SLOPE_TOL:
            problems.append(f"S2 log-slope {slope} not near 1")
    elif name == "two_mode_squeezing":
        oracle = sections["oracle"]
        if not oracle["rel_dev"] <= ORACLE_REL_TOL:
            problems.append(f"oracle rel_dev {oracle['rel_dev']} above {ORACLE_REL_TOL}")
        if oracle["bounds_contain_entropy"] is not True:
            problems.append("oracle entropy escaped the squashed bounds")
    else:
        problems.append(f"no check for hamiltonian {name!r}")
    return problems


def check_run(doc, csv_path, report_path):
    """Every problem with one run's outputs; empty when they are correct."""
    try:
        rows, report = read_outputs(csv_path, report_path)
        problems = check_report(doc, report)
        return problems or check_csv(doc, rows, report)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
