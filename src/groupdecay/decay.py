"""Group error-decay curves and their constrained weighted least-squares fit.

The decay model predicts a group's average error from its mass n in the
training set:

    e(n) = c_j + b_j * (a_half / (a0*n)^0.5 + sum_k a_k / (a0*n)^k),  k = 1..3

All parameters are non-negative; the five a-coefficients are shared across
the groups of a partition while (b_j, c_j) are per group, giving 2J + 5
parameters.  n is evaluated at max(n, 1) so empty groups get a large finite
predicted error instead of a division by zero.

The fit minimizes a doubly weighted squared loss over recorded
(training mass, validation error) checkpoints.  The mass scale a0 is
redundant with the other shared coefficients, so the fit holds it at 1 and
alternates two exact block minimizations: a non-negative least-squares
refresh of (b_j, c_j), then the four shared basis coefficients solved by
enumerating the active sets of their 4-variable non-negative least-squares
problem, with stacked solves per active-set size.  It restarts from several
deterministic initializations, and the restarts advance together: their
state carries a leading start axis, every outer iteration moves all starts
still running in one pass, and a start that converges or reaches the
iteration cap drops out with its state frozen.  The result is bitwise equal
to running the starts one at a time; what numpy could compute with other
bits for another shape (the einsums, products and scalar comparisons of
the shared-coefficient solve) still runs per start.  Inputs that cannot be
fitted (records of differing group counts, weights of the wrong shape,
negative or not finite) are a FitError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .corpus import _is_int, _iter_lines
from .partition import GroupErrorRecord

__all__ = [
    "A0_MIN",
    "DecayParams",
    "DecayFit",
    "FitConfig",
    "FitError",
    "DecayNumericalError",
    "curve_values",
    "default_weights",
    "objective_value",
    "objective_and_gradient",
    "fit",
    "serialize_fit",
    "parse_fit",
]

A0_MIN = 1e-6


class FitError(ValueError):
    """Fit cannot be attempted (bad history or weights)."""


class DecayNumericalError(ArithmeticError):
    """Objective became non-finite; carries the offending group."""

    def __init__(self, group: int):
        super().__init__(f"non-finite decay objective contribution in group {group}")
        self.group = group


@dataclass
class DecayParams:
    a0: float
    a_half: float
    a1: float
    a2: float
    a3: float
    b: np.ndarray
    c: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.b)

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            ([self.a0, self.a_half, self.a1, self.a2, self.a3], self.b, self.c)
        )


def _basis(a0, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four decay basis terms u^-0.5, u^-1, u^-2 and u^-3 of
    u = max(a0, A0_MIN) * max(n, 1)."""
    inv = 1.0 / (np.maximum(a0, A0_MIN) * np.maximum(n, 1.0))
    return np.sqrt(inv), inv, inv**2, inv**3


def curve_values(params: DecayParams, n, clamp: bool = False, groups=None) -> np.ndarray:
    """Predicted error per group at masses ``n`` (broadcast against b, c);
    with ``groups`` (one id or an array) only those groups' curves."""
    s, i1, i2, i3 = _basis(params.a0, np.asarray(n, dtype=np.float64))
    psi = params.a_half * s + params.a1 * i1 + params.a2 * i2 + params.a3 * i3
    b, c = (params.b, params.c) if groups is None else (params.b[groups], params.c[groups])
    e = c + b * psi
    return np.clip(e, 0.0, 1.0) if clamp else e


def default_weights(
    history: Sequence[GroupErrorRecord],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group weights w_j = min(100, validation mass) and per-point
    weights v_tj = 3 at each group's lowest-error checkpoint (earliest on
    ties), 1 elsewhere."""
    if not history:
        raise FitError("empty history")
    val_mass = history[-1].val_mass
    w = np.minimum(100.0, np.asarray(val_mass, dtype=np.float64))
    errors = np.stack([rec.val_error for rec in history])  # (T, J)
    v = np.ones_like(errors)
    best_t = np.argmin(errors, axis=0)
    v[best_t, np.arange(errors.shape[1])] = 3.0
    return w, v


def _matrices(
    history: Sequence[GroupErrorRecord], weights: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    shapes = {np.shape(x) for rec in history for x in (rec.train_mass, rec.val_error, rec.val_mass)}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise FitError(f"records need one value per group in every field, got shapes {sorted(shapes)}")
    N = np.stack([rec.train_mass for rec in history]).astype(np.float64)
    Y = np.stack([rec.val_error for rec in history]).astype(np.float64)
    w, v = default_weights(history) if weights is None else weights
    w, v = np.asarray(w, dtype=np.float64), np.asarray(v, dtype=np.float64)
    if w.shape != N.shape[1:] or v.shape != N.shape:
        raise FitError(f"weights need shapes {N.shape[1:]} and {N.shape}, got {w.shape} and {v.shape}")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v)) and np.all(w >= 0) and np.all(v >= 0)):
        raise FitError("weights must be finite and non-negative")
    W = v * w[None, :]
    return N, Y, W


def objective_value(
    vec: np.ndarray, N: np.ndarray, Y: np.ndarray, W: np.ndarray
) -> float:
    """Weighted squared loss of the decay model at a raw parameter vector."""
    return objective_and_gradient(vec, N, Y, W)[0]


def objective_and_gradient(
    vec: np.ndarray, N: np.ndarray, Y: np.ndarray, W: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective and its analytic gradient in the raw parameter layout
    [a0, a_half, a1, a2, a3, b_0..b_{J-1}, c_0..c_{J-1}]."""
    J = N.shape[1]
    a = vec[:5]
    b = vec[5 : 5 + J]
    c = vec[5 + J :]

    s, i1, i2, i3 = _basis(a[0], N)
    psi = a[1] * s + a[2] * i1 + a[3] * i2 + a[4] * i3

    e = c[None, :] + b[None, :] * psi
    r = e - Y
    wr = W * r
    per_group = np.sum(wr * r, axis=0)
    if not np.all(np.isfinite(per_group)):
        raise DecayNumericalError(int(np.flatnonzero(~np.isfinite(per_group))[0]))
    obj = float(per_group.sum())

    wrb = wr * b[None, :]
    a0_eff = max(a[0], A0_MIN)
    dpsi_da0 = -(0.5 * a[1] * s + a[2] * i1 + 2.0 * a[3] * i2 + 3.0 * a[4] * i3) / a0_eff
    grad = np.empty_like(vec)
    # below the floor the objective is constant in a0 (u uses max(a0, A0_MIN))
    grad[0] = 2.0 * np.sum(wrb * dpsi_da0) if a[0] >= A0_MIN else 0.0
    grad[1] = 2.0 * np.sum(wrb * s)
    grad[2] = 2.0 * np.sum(wrb * i1)
    grad[3] = 2.0 * np.sum(wrb * i2)
    grad[4] = 2.0 * np.sum(wrb * i3)
    grad[5 : 5 + J] = 2.0 * np.sum(wr * psi, axis=0)
    grad[5 + J :] = 2.0 * np.sum(wr, axis=0)
    return obj, grad


def _solve_bc(
    psi: np.ndarray, Y: np.ndarray, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-group minimization over b, c >= 0 with the basis fixed,
    for every start (row of ``psi``, shape (S, T, J)) at once.

    The problem is a 2-variable weighted least squares per group; the
    non-negativity constraint is handled by case analysis over the active
    set (interior, b = 0, c = 0, both zero).
    """
    Wpsi = W * psi
    sw = W.sum(axis=0)
    sp = Wpsi.sum(axis=1)
    spp = (Wpsi * psi).sum(axis=1)
    sy = (W * Y).sum(axis=0)
    spy = (Wpsi * Y).sum(axis=1)

    tiny = 1e-300

    def obj(bv, cv):
        return spp * bv**2 + sw * cv**2 + 2 * sp * bv * cv - 2 * spy * bv - 2 * sy * cv

    det = spp * sw - sp * sp
    safe_det = np.where(np.abs(det) > tiny, det, 1.0)
    b_unc = np.where(np.abs(det) > tiny, (spy * sw - sy * sp) / safe_det, -1.0)
    c_unc = np.where(np.abs(det) > tiny, (sy * spp - spy * sp) / safe_det, -1.0)

    c_only = np.where(sw > tiny, np.maximum(0.0, sy / np.where(sw > tiny, sw, 1.0)), 0.0)
    b_only = np.where(spp > tiny, np.maximum(0.0, spy / np.where(spp > tiny, spp, 1.0)), 0.0)

    zero = np.zeros_like(spp)
    cand_b = np.stack([b_unc, zero, b_only, zero])
    cand_c = np.stack([c_unc, np.broadcast_to(c_only, zero.shape), zero, zero])
    cand_obj = obj(cand_b, cand_c)
    cand_obj[0] = np.where((b_unc >= 0) & (c_unc >= 0), cand_obj[0], np.inf)

    pick = np.argmin(cand_obj, axis=0)
    b = np.choose(pick, cand_b)
    c = np.choose(pick, cand_c)
    dead = sw <= tiny  # excluded groups (zero total weight)
    b[:, dead] = 0.0
    c[:, dead] = 0.0
    return b, c


# the 15 non-empty active sets of the 4 shared coefficients, grouped by size:
# one (rows, free) pair per size, where free[i] lists the free coefficients of
# active-set mask rows[i] + 1, in increasing mask order
_ACTIVE_SETS = tuple(
    (np.array(masks) - 1, np.array([[i for i in range(4) if m >> i & 1] for m in masks]))
    for masks in ([m for m in range(1, 16) if bin(m).count("1") == k] for k in range(1, 5))
)


def _solve_systems(Gs: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """One start's KKT systems of one active-set size, stacked; with a
    singular system among them, one at a time, by least squares where
    singular."""
    try:
        return np.linalg.solve(Gs, hs)[:, :, 0]
    except np.linalg.LinAlgError:
        sol = np.empty(hs.shape[:2])
        for i in range(len(sol)):
            try:
                sol[i] = np.linalg.solve(Gs[i], hs[i, :, 0])
            except np.linalg.LinAlgError:
                sol[i], *_ = np.linalg.lstsq(Gs[i], hs[i, :, 0], rcond=None)
        return sol


def _solve_a(
    phi: np.ndarray, Y: np.ndarray, W: np.ndarray, b: np.ndarray, c: np.ndarray,
    current: np.ndarray,
) -> np.ndarray:
    """Exact minimization over the four shared basis coefficients (>= 0)
    with amplitudes and floors fixed, for every start (row of ``b``, ``c``
    and ``current``) at once.

    The problem is a 4-variable non-negative least squares; the optimum is
    found by enumerating active sets and taking the best feasible solution,
    which can never be worse than ``current``.  The KKT systems of the 15
    non-empty active sets are solved as one stacked solve per active-set
    size over all starts (4, 6, 4 and 1 systems per start); a size with a
    singular system falls back to each start's stacked solve, then to its
    systems one at a time.  Candidates are compared in active-set mask
    order, the empty set first, so ties go to the smallest mask.  The
    einsums, the residual sum and the comparisons run per start: their bits
    can depend on the shape numpy is given.
    """
    X = phi * b[:, None, None, :]  # (S, 4, T, J)
    r = Y - c[:, None, :]
    WX = W * X
    G = [np.einsum("ptj,qtj->pq", wx, x) for wx, x in zip(WX, X)]
    h = [np.einsum("ptj,tj->p", wx, rs) for wx, rs in zip(WX, r)]
    base = [float(np.sum(W * rs * rs)) for rs in r]

    G_all, h_all = np.stack(G), np.stack(h)
    cand = np.zeros((len(current), 15, 4))
    for rows, free in _ACTIVE_SETS:
        Gs = G_all[:, free[:, :, None], free[:, None, :]]
        hs = h_all[:, free, None]
        try:
            sol = np.linalg.solve(Gs, hs)[..., 0]
        except np.linalg.LinAlgError:
            sol = np.stack([_solve_systems(g, v) for g, v in zip(Gs, hs)])
        cand[:, rows[:, None], free] = sol
    feasible = np.all((cand >= 0) & np.isfinite(cand), axis=2)

    def quad(s: int, a: np.ndarray) -> float:
        return base[s] - 2.0 * float(a @ h[s]) + float(a @ G[s] @ a)

    best = current.copy()
    for s in range(len(best)):
        best_obj = quad(s, current[s])
        for a in (np.zeros(4), *cand[s][feasible[s]]):
            obj = quad(s, a)
            if obj < best_obj:
                best_obj, best[s] = obj, a
    return best


@dataclass
class FitConfig:
    restarts: int = 8
    max_outer: int = 500
    rel_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.restarts) or self.restarts < 1:
            raise ValueError(f"fit restarts must be an integer >= 1, got {self.restarts!r}")
        if not _is_int(self.max_outer) or self.max_outer < 0:
            raise ValueError(f"fit max_outer must be an integer >= 0, got {self.max_outer!r}")
        if not (
            isinstance(self.rel_tol, (int, float)) and math.isfinite(self.rel_tol)
            and self.rel_tol >= 0
        ):
            raise ValueError(f"fit rel_tol must be finite and >= 0, got {self.rel_tol!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"fit seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class DecayFit:
    params: DecayParams
    history: list[GroupErrorRecord]
    objective_value: float
    converged: bool
    objective_trace: list[float] = field(default_factory=list)
    start_objectives: list[float] = field(default_factory=list)


def _spec_init(N: np.ndarray, Y: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Default start: 1/sqrt(n) regime with per-group floor/amplitude guesses.

    Returned in the reduced parameterization (mass scale absorbed into the
    four shared coefficients): a_bar = (a_half/a0^0.5, a1/a0, a2/a0^2,
    a3/a0^3) with a0 = 1/mean training mass, a_half = 1 and a_k = 0.01.
    """
    J = N.shape[1]
    active = W > 0
    mean_mass = float(N[active].mean()) if active.any() else 1.0
    a0 = max(1.0 / max(mean_mass, 1.0), A0_MIN)
    a_bar = np.array([1.0 / a0**0.5, 0.01 / a0, 0.01 / a0**2, 0.01 / a0**3])
    big = np.where(active, Y, np.inf)
    c = np.min(big, axis=0)
    c[~np.isfinite(c)] = 0.0
    first_idx = np.argmax(active, axis=0)
    first = Y[first_idx, np.arange(J)]
    first = np.where(active.any(axis=0), first, 0.0)
    b = np.maximum(first - c, 0.01)
    return a_bar, b, c


def _psi(a_bar: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The basis a_bar . phi of every start, (S, T, J): per start the one
    (1, 4) x (4, T*J) product that ``np.tensordot(a, phi, axes=1)`` makes,
    as the bits of a stacked product can depend on its shape."""
    flat = phi.reshape(4, -1)
    return np.stack([np.dot(a.reshape(1, 4), flat) for a in a_bar]).reshape(-1, *phi.shape[1:])


def _objectives(
    psi: np.ndarray, b: np.ndarray, c: np.ndarray, Y: np.ndarray, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced objective of every start and each start's first group whose
    contribution is not finite (-1 where there is none)."""
    e = c[:, None, :] + b[:, None, :] * psi
    per_group = np.sum(W * (e - Y) ** 2, axis=1)
    bad = ~np.isfinite(per_group)
    return per_group.sum(axis=1), np.where(bad.any(axis=1), bad.argmax(axis=1), -1)


def fit(
    history: Sequence[GroupErrorRecord],
    weights: tuple[np.ndarray, np.ndarray] | None = None,
    config: FitConfig | None = None,
) -> DecayFit:
    """Fit the decay model to recorded checkpoints.

    Multi-start minimization; every accepted step decreases the objective,
    so the returned objective is no worse than any tried initialization and
    the per-start trace is monotone non-increasing.  Deterministic given
    (history, weights, config).
    """
    if len(history) < 2:
        raise FitError(f"need at least 2 checkpoints, got {len(history)}")
    cfg = config or FitConfig()
    N, Y, W = _matrices(history, weights)
    J = N.shape[1]
    if not np.any(W > 0):
        raise FitError("all groups have zero weight")

    # reduced parameterization: e = c_j + b_j * (a_bar . phi(n)) with
    # phi = (n^-0.5, n^-1, n^-2, n^-3); the redundant mass scale a0 is 1
    phi = np.stack(_basis(1.0, N))  # (4, T, J)
    if not np.all(np.isfinite(phi)) or not np.all(np.isfinite(Y)):
        bad = ~np.all(np.isfinite(Y), axis=0) if np.any(~np.isfinite(Y)) else ~np.all(
            np.isfinite(phi), axis=(0, 1)
        )
        raise DecayNumericalError(int(np.flatnonzero(bad)[0]))

    # every start's state on a leading start axis; the perturbations are
    # drawn start by start, a then b then c
    S = cfg.restarts
    a_bar, b, c = (np.tile(x, (S, 1)) for x in _spec_init(N, Y, W))
    rng = np.random.default_rng(cfg.seed)
    for start in range(1, S):
        a_bar[start] *= np.exp(rng.normal(0.0, 1.0, size=4))
        b[start] *= np.exp(rng.normal(0.0, 0.5, size=J))
        c[start] *= np.exp(rng.normal(0.0, 0.5, size=J))
    # psi always holds the basis of the current a_bar
    psi = _psi(a_bar, phi)
    obj, bad = _objectives(psi, b, c, Y, W)
    start_objs = obj.tolist()
    traces = [[o] for o in start_objs]
    converged = np.zeros(S, dtype=bool)
    failed: dict[int, int] = {}  # start -> its first group with a non-finite objective

    # the starts still iterating (live) and their a_bar, psi and objective
    live, la, lpsi, stop = np.arange(S), a_bar, psi, np.zeros(S, dtype=bool)
    for step in range(cfg.max_outer + 1):
        failed.update(zip(live[bad >= 0].tolist(), bad[bad >= 0].tolist()))
        # a start that fails ends the fit: no start after it matters
        stop |= (bad >= 0) | (live > min(failed, default=S))
        if stop.any():
            a_bar[live[stop]], psi[live[stop]] = la[stop], lpsi[stop]
            live, la, lpsi, obj = live[~stop], la[~stop], lpsi[~stop], obj[~stop]
        if step == cfg.max_outer or not live.size:
            break
        b, c = _solve_bc(lpsi, Y, W)
        la = _solve_a(phi, Y, W, b, c, la)
        lpsi = _psi(la, phi)
        obj_new, bad = _objectives(lpsi, b, c, Y, W)
        for start, o in zip(live.tolist(), obj_new.tolist()):
            traces[start].append(o)
        stop = obj - obj_new <= cfg.rel_tol * np.maximum(obj, 1e-12)
        converged[live] = stop
        obj = obj_new
    a_bar[live], psi[live] = la, lpsi

    # final amplitude/floor refresh so stored params are block-optimal, for
    # the starts before the first failing one
    n_ran = min(failed, default=S)
    if n_ran:
        b, c = _solve_bc(psi[:n_ran], Y, W)
        obj, bad = _objectives(psi[:n_ran], b, c, Y, W)
        failed.update(zip(np.flatnonzero(bad >= 0).tolist(), bad[bad >= 0].tolist()))
    if failed:
        raise DecayNumericalError(failed[min(failed)])
    best = int(np.argmin(obj))  # the earliest start on ties
    params = DecayParams(
        a0=1.0, a_half=float(a_bar[best, 0]), a1=float(a_bar[best, 1]),
        a2=float(a_bar[best, 2]), a3=float(a_bar[best, 3]), b=b[best].copy(), c=c[best].copy(),
    )
    return DecayFit(
        params=params,
        history=list(history),
        objective_value=float(obj[best]),
        converged=bool(converged[best]),
        objective_trace=traces[best] + [float(obj[best])],
        start_objectives=start_objs,
    )


# -- serialization ----------------------------------------------------------

_FIT_HEADER = "# groupdecay-decayfit/1"


def serialize_fit(params: DecayParams, objective: float | None = None) -> str:
    """Text export: a header row with the shared coefficients, then one row
    per group with its amplitude b and floor c."""
    out = [_FIT_HEADER]
    if objective is not None:
        out.append(f"# objective {objective!r}")
    out.append("a0,a_half,a1,a2,a3")
    out.append(
        ",".join(repr(float(v)) for v in (params.a0, params.a_half, params.a1, params.a2, params.a3))
    )
    out.append("group,b,c")
    for j in range(params.n_groups):
        out.append(f"{j},{float(params.b[j])!r},{float(params.c[j])!r}")
    return "\n".join(out) + "\n"


def _coefficients(line: str, cells: Sequence[str]) -> list[float]:
    """``cells`` as floats; a cell that is not a finite number is a
    :class:`FitError` naming ``line``."""
    try:
        values = [float(v) for v in cells]
    except ValueError as exc:
        raise FitError(f"row {line!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise FitError(f"row {line!r} holds a coefficient that is not a finite number")
    return values


def parse_fit(text: str | IO[str]) -> DecayParams:
    lines = [ln for _, ln in _iter_lines(text) if ln and not ln.startswith("#")]
    if not lines or lines[0] != "a0,a_half,a1,a2,a3":
        raise FitError("not a decay-fit file")
    if len(lines) < 2:
        raise FitError("missing shared coefficient row")
    a = _coefficients(lines[1], lines[1].split(","))
    if len(a) != 5:
        raise FitError(f"expected 5 shared coefficients, got {len(a)}")
    if len(lines) < 3 or lines[2] != "group,b,c":
        raise FitError("missing group table header")
    b: list[float] = []
    c: list[float] = []
    for ln in lines[3:]:
        cols = ln.split(",")
        if len(cols) != 3:
            raise FitError(f"group row {ln!r} needs 3 columns, got {len(cols)}")
        b_value, c_value = _coefficients(ln, cols[1:])
        b.append(b_value)
        c.append(c_value)
    return DecayParams(
        a0=a[0], a_half=a[1], a1=a[2], a2=a[3], a3=a[4],
        b=np.asarray(b), c=np.asarray(c),
    )
