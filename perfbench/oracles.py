"""Independent oracles for the benchmark's operations.

Nothing here calls into ``e2qes``: every reference value is rebuilt from
the model's definition with mpmath, numpy and scipy, so a
change to the package cannot change what its outputs are judged against.
Each ``check_*`` oracle returns ``(ok, measure)``; ``negative_controls``
feeds oracles deliberately corrupted results and reports whether each
one said no.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.linalg import expm

from inputs import JSON_WORD, WORDS

# acceptance thresholds, fixed here so a package change cannot move them
EIGENVALUE_REL_TOL = 1e-10
EIGENFUNCTION_RESIDUAL_TOL = 1e-8
SYNTHESIS_TOL = 1e-10
EXPECTATION_TOL = 1e-9
FRAME_RESIDUAL_TOL = 1e-7
HERMITICITY_TOL = 1e-10
CLOSED_FORM_TOL = 1e-9
ORACLE_GRID = 2048
DENSE_ORDER = 32
DENSE_PAD = 4
MP_DIGITS = 40


# ---------------------------------------------------------------------------
# quasi-exact spectra: high-precision roots of the three-term recurrence

def level(n_hat, beta):
    """Quantized level parameter, computed as the package's inputs are."""
    return float(n_hat + (n_hat - 1) * beta)


def _recurrence(sector, n_hat, zeta, beta):
    """Monic recurrence p_m = (x - alpha_m) p_{m-1} - beta_m p_{m-2}.

    Returns (alphas, betas) in mpmath for m = 1..n where n is the degree
    of the terminating polynomial (n_hat for cos, n_hat - 1 for sin).
    betas[0] is unused.
    """
    z, b, N = mpmath.mpf(zeta), mpmath.mpf(beta), mpmath.mpf(level(n_hat, beta))

    def kernel(n):
        return z ** 2 * (N + n * b + (n - 1)) * (N - (n - 1) * b - n)

    if sector == "cos":
        n = n_hat
        alphas = [4 * (m - 1) ** 2 for m in range(1, n + 1)]
        betas = [None] + [2 * kernel(1) if m == 2 else kernel(m - 1)
                          for m in range(2, n + 1)]
    else:
        n = n_hat - 1
        alphas = [4 * m ** 2 for m in range(1, n + 1)]
        betas = [None] + [kernel(m) for m in range(2, n + 1)]
    return [mpmath.mpf(a) for a in alphas], betas


def _sequence(alphas, betas, x):
    """p_0(x), ..., p_n(x) and p_n'(x)."""
    p_prev, p = mpmath.mpf(0), mpmath.mpf(1)
    d_prev, d = mpmath.mpf(0), mpmath.mpf(0)
    seq = [p]
    for m, a in enumerate(alphas, start=1):
        bm = betas[m - 1] if m >= 2 else 0
        p_new = (x - a) * p - bm * p_prev
        d_new = p + (x - a) * d - bm * d_prev
        p_prev, p, d_prev, d = p, p_new, d, d_new
        seq.append(p)
    return seq, d


def _roots_above(alphas, betas, x):
    """Sturm count: zeros of p_n above x (sign changes of p_0..p_n)."""
    seq, _ = _sequence(alphas, betas, x)
    signs = [s > 0 for s in seq if s != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def reference_lambdas(sector, n_hat, zeta, beta):
    """All roots of the terminating polynomial to MP_DIGITS digits.

    Starting values come from the symmetric tridiagonal form (every
    kernel weight is positive at the quantized level), Newton steps in
    mpmath polish them, and a Sturm count at the midpoints proves that
    each root is simple and none is missing.
    """
    with mpmath.workdps(MP_DIGITS):
        alphas, betas = _recurrence(sector, n_hat, zeta, beta)
        n = len(alphas)
        if n == 0:
            return np.zeros(0)
        if any(bm <= 0 for bm in betas[1:]):
            raise ValueError("recurrence is not a Jacobi recurrence here")
        jac = np.diag([float(a) for a in alphas])
        off = [math.sqrt(float(bm)) for bm in betas[1:]]
        jac += np.diag(off, 1) + np.diag(off, -1)
        roots = []
        for guess in np.linalg.eigvalsh(jac):
            x = mpmath.mpf(guess)
            for _ in range(60):
                seq, d = _sequence(alphas, betas, x)
                step = seq[-1] / d
                x -= step
                if abs(step) <= mpmath.mpf(10) ** (-MP_DIGITS + 5) * (1 + abs(x)):
                    break
            roots.append(x)
        roots.sort()
        cuts = [roots[0] - 1] + [(u + v) / 2 for u, v in zip(roots, roots[1:])] \
            + [roots[-1] + 1]
        counts = [_roots_above(alphas, betas, c) for c in cuts]
        if counts != list(range(n, -1, -1)):
            raise ValueError(f"Sturm isolation failed: counts {counts}")
        return np.array([float(r) for r in roots])


def check_eigenvalues(got, want):
    got = np.sort(np.asarray(got, dtype=float))
    if got.shape != want.shape:
        return False, math.inf
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))) \
        if len(want) else 0.0
    return err <= EIGENVALUE_REL_TOL, err


# ---------------------------------------------------------------------------
# states on the circle

def grid_nodes(k=ORACLE_GRID, theta0=0.0):
    return theta0 + 2.0 * np.pi * np.arange(k) / k


def synthesize(modes, k=ORACLE_GRID):
    """Samples of sum_n c_n exp(i n theta) on k uniform nodes via the FFT."""
    modes = np.asarray(modes, dtype=complex)
    half = len(modes) // 2
    spec = np.zeros(k, dtype=complex)
    for n, c in zip(range(-half, half + 1), modes):
        spec[n % k] += c
    return np.fft.ifft(spec) * k


def mode_number(values, power=1):
    """(-i d/dtheta)^power on uniform samples."""
    k = len(values)
    freqs = np.fft.fftfreq(k, d=1.0 / k)
    return np.fft.ifft(np.fft.fft(values) * freqs ** power)


def model_operator(values, zeta, beta, lvl, theta):
    """H = 4 J^2 + 2i(1-beta) zeta u J - beta zeta^2 v^2 + 2 zeta N v."""
    u, v = np.sin(theta), np.cos(theta)
    return (4.0 * mode_number(values, 2)
            + 2j * (1.0 - beta) * zeta * u * mode_number(values)
            - beta * zeta ** 2 * v * v * values
            + 2.0 * zeta * lvl * v * values)


def eigen_residual(values, energy, zeta, beta, lvl, theta):
    """||H psi - E psi|| / ((1 + |E|) ||psi||) on the grid."""
    r = model_operator(values, zeta, beta, lvl, theta) - energy * values
    return float(np.linalg.norm(r) / ((1.0 + abs(energy)) * np.linalg.norm(values)))


def check_eigenfunction(modes, energy, zeta, beta, lvl):
    values = synthesize(modes)
    res = eigen_residual(values, energy, zeta, beta, lvl, grid_nodes())
    return res <= EIGENFUNCTION_RESIDUAL_TOL, res


def moments(values, theta):
    """<u>, <v>, <J> of grid samples by the trapezoid rule."""
    dens = np.abs(values) ** 2
    norm = dens.sum()
    j = np.vdot(values, mode_number(values)).real / norm
    return {"u": float((np.sin(theta) * dens).sum() / norm),
            "v": float((np.cos(theta) * dens).sum() / norm),
            "J": float(j)}


def check_sampling(modes, samples, expectations):
    """Grid samples and <u>, <v>, <J> against the oracle's own synthesis."""
    mine = synthesize(modes, len(samples))
    scale = float(np.max(np.abs(mine)))
    dev = float(np.max(np.abs(np.asarray(samples) - mine))) / scale
    want = moments(mine, grid_nodes(len(samples)))
    edev = max(abs(expectations[k] - want[k]) for k in want)
    ok = dev <= SYNTHESIS_TOL and edev <= EXPECTATION_TOL
    return ok, max(dev, edev)


# ---------------------------------------------------------------------------
# frame maps: dense J, u, v and the time-dependent frame equation

def generators(order=DENSE_ORDER):
    modes = np.arange(-order, order + 1)
    dim = len(modes)
    J = np.diag(modes.astype(complex))
    up = np.diag(np.ones(dim - 1), -1)  # n -> n + 1
    u = -0.5j * up + 0.5j * up.T
    v = 0.5 * (up + up.T)
    return J, u, v


def interior_norm(m, pad=DENSE_PAD):
    return float(np.linalg.norm(m[pad:-pad, pad:-pad], ord=2))


# functions that appear in serialized time profiles, evaluated by numpy
_NAMESPACE = {"__builtins__": {}, "pi": np.pi, "E": np.e, "I": 1j,
              **{f: getattr(np, f) for f in ("sin", "cos", "tan", "exp",
                                             "sinh", "cosh", "tanh", "sqrt")},
              "sec": lambda x: 1.0 / np.cos(x), "log": np.log, "Abs": np.abs}


def expression(text):
    """Evaluator for a serialized time profile (sympy's printed syntax).

    The text is read as arithmetic over numpy functions, so it accepts
    everything the solver emits (tan, sinh, tanh included) without the
    package's own parser.  Builtins are unavailable to the expression.
    """
    code = compile(str(text).replace("^", "**"), "<profile>", "eval")
    if set(code.co_names) - set(_NAMESPACE) - {"t"}:
        raise ValueError(f"unexpected names in {text!r}: {code.co_names}")
    return lambda t: complex(eval(code, _NAMESPACE, {"t": t}))


def coefficient_fns(json_coeffs):
    out = {}
    for key, word in JSON_WORD.items():
        re, im = expression(json_coeffs[key]["re"]), expression(json_coeffs[key]["im"])
        out[word] = (lambda t, re=re, im=im: re(t) + 1j * im(t))
    return out


def realize(fns, t, gens):
    J, u, v = gens
    words = {"JJ": J @ J, "J": J, "u": u, "v": v, "uJ": u @ J, "vJ": v @ J,
             "uu": u @ u, "vv": v @ v, "uv": u @ v}
    return sum(fns[w](t) * words[w] for w in WORDS)


def frame_map(slots, cls, t, gens):
    """eta = exp(tau_e v) exp(lam_e J) exp(rho_e u) with the class phases."""
    J, u, v = gens
    tau, lam, rho = (slots[k](t).real for k in ("tau", "lambda", "rho"))
    if cls == "PT1":
        tau_e, lam_e = tau, lam
    elif cls == "PT5":
        tau_e, lam_e = 1j * tau, 1j * lam
    else:
        tau_e, lam_e = tau, 1j * lam
    return expm(tau_e * v) @ (np.exp(lam_e * np.diag(J))[:, None] * expm(rho * u))


def frame_residual(cls, coeff_fns, h_fns, slots, t, gens, dt=1e-5):
    """Interior ||h eta - eta H - i d(eta)/dt|| relative to 1 + |H| + |h|."""
    H = realize(coeff_fns, t, gens)
    h = realize(h_fns, t, gens)
    eta = frame_map(slots, cls, t, gens)
    deta = (frame_map(slots, cls, t + dt, gens)
            - frame_map(slots, cls, t - dt, gens)) / (2.0 * dt)
    r = h @ eta - eta @ H - 1j * deta
    return interior_norm(r) / (1.0 + interior_norm(H) + interior_norm(h))


def hermiticity(h_fns, t, gens):
    h = realize(h_fns, t, gens)
    return interior_norm(h - h.conj().T) / (1.0 + interior_norm(h))


def check_dyson(cls, input_coeffs, output, times):
    """Serialized solve output against the frame equation at fresh times.

    ``output`` holds ``params`` (tau, lambda, rho strings) and
    ``hCoefficients`` (the nine {re, im} string pairs).
    """
    gens = generators()
    H = coefficient_fns(input_coeffs)
    h = coefficient_fns(output["hCoefficients"])
    slots = {k: expression(output["params"][k]) for k in ("tau", "lambda", "rho")}
    frame = max(frame_residual(cls, H, h, slots, t, gens) for t in times)
    herm = max(hermiticity(h, t, gens) for t in times)
    ok = frame <= FRAME_RESIDUAL_TOL and herm <= HERMITICITY_TOL
    return ok, max(frame, herm)


# ---------------------------------------------------------------------------
# closed forms for the CLI subcommands

def reality_classes(values_by_word, tol=1e-12):
    """Symmetry classes from reality patterns of sampled coefficients."""
    def real(w):
        return all(abs(z.imag) <= tol * (1 + abs(z)) for z in values_by_word[w])

    def imag(w):
        return all(abs(z.real) <= tol * (1 + abs(z)) for z in values_by_word[w])

    patterns = {"PT1": ("J", "u", "v"), "PT2": ("J", "uJ", "vJ"),
                "PT4": ("u", "uJ", "uv"), "PT5": ("v", "vJ", "uv")}
    found = [c for c, im_words in patterns.items()
             if all(imag(w) for w in im_words)
             and all(real(w) for w in WORDS if w not in im_words)]
    pt3 = all(real(w) for w in ("JJ", "J", "uv")) and all(
        abs(za - np.conj(zb)) <= tol * (1 + abs(za) + abs(zb))
        for a, b in (("u", "v"), ("uJ", "vJ"), ("uu", "vv"))
        for za, zb in zip(values_by_word[a], values_by_word[b]))
    if pt3:
        found.append("PT3")
    return sorted(found)


def three_level_states(gamma, lam_t, theta):
    """Unnormalized level-2 states plus, minus, zero in the Hermitian frame."""
    x = theta + lam_t
    env = np.exp(-0.25 * gamma * np.cos(x))
    s = math.sqrt(1.0 + gamma * gamma)
    return {"plus": env * (gamma + (1.0 + s) * np.cos(x)),
            "minus": env * (gamma + (1.0 - s) * np.cos(x)),
            "zero": env * np.sin(x)}


def three_level_energies(zeta, beta):
    gamma = (1.0 + beta) * zeta
    bz = beta * zeta ** 2
    s = math.sqrt(1.0 + gamma * gamma)
    return {"plus": 2.0 - bz + 2.0 * s, "minus": 2.0 - bz - 2.0 * s,
            "zero": 4.0 - bz}


def limit_spectrum(g, k_low, order=64):
    """Lowest eigenvalues of 4 J^2 + 2 g v on the mode basis."""
    J, _, v = generators(order)
    return np.sort(np.linalg.eigvalsh(4.0 * J @ J + 2.0 * g * v).real)[:k_low]


def negative_controls():
    """Feed each oracle a corrupted result; return {oracle: rejected}."""
    out = {}
    # eigenvalues perturbed by 1e-6 relative
    want = reference_lambdas("cos", 5, 1.0, 0.3)
    out["eigenvalues"] = not check_eigenvalues(want * (1.0 + 1e-6), want)[0]
    # an exact eigenfunction judged against another root's energy
    zeta, beta, lvl = 1.0, 0.3, level(4, 0.3)
    lams = reference_lambdas("cos", 4, zeta, beta)
    theta = grid_nodes()
    states = _reference_states("cos", 4, zeta, beta, lams, theta)
    good = eigen_residual(states[0], lams[0] - beta * zeta ** 2, zeta, beta, lvl, theta)
    bad = eigen_residual(states[1], lams[0] - beta * zeta ** 2, zeta, beta, lvl, theta)
    out["eigenfunction"] = (good <= EIGENFUNCTION_RESIDUAL_TOL
                            and bad > EIGENFUNCTION_RESIDUAL_TOL)
    # synthesis: samples and moments of a state against a scaled copy
    modes = np.random.default_rng(0).normal(size=81) * np.exp(-0.1 * np.abs(np.arange(-40, 41)))
    modes = modes / np.linalg.norm(modes)
    samples = synthesize(modes)
    ok_good = check_sampling(modes, samples, moments(samples, theta))[0]
    ok_bad = check_sampling(modes, samples * 1.001, moments(samples, theta))[0]
    out["sampling"] = ok_good and not ok_bad
    # frame equation with a flipped-sign rho
    out["frame_equation"] = _flipped_rho_rejected()
    return out


def _reference_states(sector, n_hat, zeta, beta, lams, theta):
    """Eigenfunctions of H for each root, from the recurrence in mpmath.

    psi = exp(-(zeta/2) cos theta) sum_n c_n p_n(lam) trig(n theta), with
    c_n the series weights of the terminating solution.
    """
    lvl = level(n_hat, beta)
    a = (1.0 + lvl + 2.0 * beta) / (1.0 + beta)
    alphas, betas = _recurrence(sector, n_hat, zeta, beta)
    lo = 0 if sector == "cos" else 1
    out = []
    for lam in lams:
        seq, _ = _sequence(alphas, betas, mpmath.mpf(lam))
        psi = np.zeros_like(theta, dtype=complex)
        for i, n in enumerate(range(lo, n_hat)):
            if n == 0:
                c = 1.0
            else:
                poch = math.prod(a + j for j in range(n - 1))
                c = 1.0 / (zeta ** n * (lvl + beta) * (1.0 + beta) ** (n - 1) * poch)
            trig = np.cos(n * theta) if sector == "cos" else np.sin(n * theta)
            psi += c * float(seq[i]) * trig
        out.append(np.exp(-0.5 * zeta * np.cos(theta)) * psi)
    return out


def _flipped_rho_rejected():
    """The quartic rotor family's frame map passes; with rho negated it fails."""
    zeta, beta, lvl = 1.5, 0.3, 2.3
    lam = "0.4*sin(t)"
    c = (1.0 - beta) * zeta / 4.0
    muv, muuj, muvv = 2.0 * zeta * lvl, 2.0 * (1.0 - beta) * zeta, -beta * zeta ** 2
    q = muuj ** 2 / 16.0
    coeffs = {k: {"re": "0", "im": "0"} for k in JSON_WORD}
    coeffs.update({"muJJ": {"re": "4", "im": "0"}, "muV": {"re": repr(muv), "im": "0"},
                   "muUJ": {"re": "0", "im": repr(muuj)},
                   "muVV": {"re": repr(muvv), "im": "0"}})
    s, co = f"sin({lam})", f"cos({lam})"
    h = {k: {"re": "0", "im": "0"} for k in JSON_WORD}
    h.update({
        "muJJ": {"re": "4", "im": "0"},
        "muJ": {"re": "-0.4*cos(t)", "im": "0"},
        "muU": {"re": f"{s}*({0.5 * muuj - muv!r})", "im": "0"},
        "muV": {"re": f"{co}*({muv - 0.5 * muuj!r})", "im": "0"},
        "muUU": {"re": f"{q!r}*{co}**2 + ({muvv!r})*{s}**2", "im": "0"},
        "muVV": {"re": f"{q!r}*{s}**2 + ({muvv!r})*{co}**2", "im": "0"},
        "muUV": {"re": f"2*{s}*{co}*({q - muvv!r})", "im": "0"},
    })
    good = {"tau": f"{c!r}/{co}", "lambda": lam, "rho": f"-{c!r}*tan({lam})"}
    bad = dict(good, rho=f"{c!r}*tan({lam})")
    times = (0.4, 1.3)
    ok_good = check_dyson("PT2", coeffs, {"params": good, "hCoefficients": h}, times)[0]
    ok_bad = check_dyson("PT2", coeffs, {"params": bad, "hCoefficients": h}, times)[0]
    return ok_good and not ok_bad
