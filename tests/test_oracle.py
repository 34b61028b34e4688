"""The loss and its embedding gradient against a 40-digit oracle.

The reference writes the loss from its definition, one (i, j) pair at a
time, in mpmath at 40 digits: each anchor row i of the 2N x D stack (view a
first) scores every other row j by s_ij / tau(s_ij) with s_ij = z_i . z_j,
and the loss is the mean over rows of log sum_j exp(s_ij / tau_ij) minus the
positive row's score. Each variant's tau is written from its formula here;
only the functions under test call into `dystress.loss` and
`dystress.temperature`. The gradient is `mpmath.diff` of that loss in each
coordinate; DETACHED holds every tau at its 40-digit value at z.

Every |s|, and for the shifted profile every |s + shift|, stays at least
KINK_CLEARANCE from a kink of tau, so the finite differences see one branch.
"""

import mpmath
import numpy as np
import pytest

from dystress.loss import LossMode, grad_wrt_embeddings, loss_on_embeddings
from dystress.temperature import TemperatureProfile

N, D = 3, 4
SEEDS = (1, 2)
KINK_CLEARANCE = 1e-3
# bound on max|dL/dz - oracle| / max|oracle| and on |loss - oracle| / |oracle|;
# the worst over these cases measured 4.2e-16 for the gradient and 2.0e-16 for the loss
BOUND = 1e-13

CASES = [
    ("constant", {"tau_min": 0.1}),
    ("cosine_vanilla", {"tau_min": 0.1, "tau_max": 0.2}),
    ("cosine_shifted", {"tau_min": 0.1, "tau_max": 0.2, "shift": -0.4, "scale": 0.7}),
    ("linear", {"tau_min": 0.1, "tau_max": 0.2}),
    ("exponential", {"tau_min": 0.1, "tau_max": 0.2, "sharpness": 2.0}),
    ("monotonic_cosine", {"tau_min": 0.1, "tau_max": 0.2}),
]


def reference_tau(variant, p, s):
    """tau(s) of `variant` with the fields `p`, from its formula, in mpmath."""
    lo = mpmath.mpf(p["tau_min"])
    if variant == "constant":
        return lo
    dt = mpmath.mpf(p["tau_max"]) - lo
    if variant == "cosine_vanilla":
        return lo + dt / 2 * (1 + mpmath.cos(mpmath.pi * (1 + s)))
    if variant == "cosine_shifted":
        ds, k = mpmath.mpf(p["shift"]), mpmath.mpf(p["scale"])
        in_window = (ds <= 0 and s <= -ds) or (ds >= 0 and s >= -ds)
        return lo + dt / 2 * (1 + mpmath.cos(mpmath.pi / k * (ds + s))) if in_window else lo + dt
    if variant == "linear":
        return lo + dt * abs(s)
    if variant == "exponential":
        a = mpmath.mpf(p["sharpness"])
        return lo + dt * mpmath.expm1(a * abs(s)) / mpmath.expm1(a)
    assert variant == "monotonic_cosine"
    return lo + dt / 2 * (1 - mpmath.cos(mpmath.pi / 2 * (1 + s)))


def reference_loss(z, tau_of):
    """Mean over anchor rows i of log sum_{j != i} exp(s_ij / tau_ij) - s_ip / tau_ip."""
    rows = len(z)
    total = mpmath.mpf(0)
    for i in range(rows):
        scores = {}
        for j in range(rows):
            if j != i:
                s = mpmath.fdot(z[i], z[j])
                scores[j] = s / tau_of(i, j, s)
        total += mpmath.log(mpmath.fsum(mpmath.exp(x) for x in scores.values())) - scores[(i + rows // 2) % rows]
    return total / rows


def reference_gradient(z, tau_of):
    """d(reference_loss)/dz by mpmath.diff, one coordinate at a time."""
    grad = []
    for k in range(len(z)):
        row = []
        for d in range(len(z[k])):
            def loss_at(x, k=k, d=d):
                moved = [list(r) for r in z]
                moved[k][d] = x
                return reference_loss(moved, tau_of)

            row.append(mpmath.diff(loss_at, z[k][d]))
        grad.append(row)
    return grad


def embeddings(seed):
    z = np.random.default_rng(seed).standard_normal((2 * N, D))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", list(LossMode), ids=lambda m: m.value)
@pytest.mark.parametrize("variant, fields", CASES, ids=[variant for variant, _ in CASES])
def test_loss_and_gradient_match_the_oracle(variant, fields, mode, seed):
    z = embeddings(seed)
    profile = TemperatureProfile(variant, **fields)
    with mpmath.workdps(40):
        zm = [[mpmath.mpf(float(x)) for x in row] for row in z]
        s0 = {(i, j): mpmath.fdot(zm[i], zm[j]) for i in range(2 * N) for j in range(2 * N) if i != j}
        kinks = [0.0] + ([-fields["shift"]] if "shift" in fields else [])
        clearance = min(abs(s - kink) for s in s0.values() for kink in kinks)
        assert clearance >= KINK_CLEARANCE, f"seed {seed} puts a similarity {clearance} from a kink"
        tau0 = {pair: reference_tau(variant, fields, s) for pair, s in s0.items()}
        if mode is LossMode.DETACHED:
            tau_of = lambda i, j, s: tau0[i, j]  # noqa: E731
        else:
            tau_of = lambda i, j, s: reference_tau(variant, fields, s)  # noqa: E731
        loss = reference_loss(zm, tau_of)
        grad = np.array(reference_gradient(zm, tau_of), dtype=np.float64)
    assert abs(loss_on_embeddings(z, profile) - float(loss)) <= BOUND * abs(float(loss))
    dL_dz = grad_wrt_embeddings(z, profile, mode).dL_dz
    assert np.max(np.abs(dL_dz - grad)) <= BOUND * np.max(np.abs(grad))
