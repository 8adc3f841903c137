"""Low-depth amplitude estimation: schedules, damped-oscillation fits, bounds.

The marked-count response after ``l`` Grover applications is
``r(theta, l, a, f) = e^{-a l} sin^2((2l+1) theta/2) + (1 - e^{-a l}) f``
where ``a`` is the per-Grover error decay rate and ``f`` the expected marked
fraction of a scrambled shot. A schedule run draws each power's count as one
binomial of this mean, with ``f = 2^-m`` for m marked nodes. Fits minimize
the sum of squared residuals on count fractions. The loss is first evaluated
on a (theta, a) grid with ``f`` profiled out in closed form (variable
projection), and a batched, box-projected Levenberg-Marquardt solver
(analytic Jacobian) refines the grid's best points: the best angle of each
grid rate for the damped model, the four best angles for the sine fit.
``f`` is kept in [0, 1], and ``a`` at or above -1 (or -100 / max l, for
schedules reaching past power 100) so ``e^{-a l}`` cannot overflow. Angles
follow the eigenphase convention ``p = sin^2(theta/2)``; ``theta`` and
``2*pi - theta`` predict identical integer-power responses, so fits always
report the smaller angle.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import operator
from dataclasses import dataclass

import numpy as np

from .circuit import GroverSpec
from .errors import FitDivergedError, ParseError, ResourceLimitError, ValidationError
from .model import NetworkModel, seed_tuple
from .qae import _half_angle, _plane

__all__ = [
    "NoiseSpec",
    "LowDepthTrace",
    "FitResult",
    "predict",
    "run_schedule",
    "fit_sine",
    "fit_noise_model",
    "min_shots",
    "max_depth",
    "trace_to_text",
    "trace_from_text",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Phenomenological channel: each Grover application scrambles the shot
    with probability ``per_grover_error``; a scrambled shot measures uniformly
    over the observed register. ``1 - per_grover_error = e^{-a}`` maps to the
    decay rate ``a`` of the damped-oscillation response."""

    per_grover_error: float

    def __post_init__(self):
        if not 0.0 <= self.per_grover_error <= 1.0:
            raise ValidationError("per-Grover error must be in [0, 1]", code="out-of-range")

    @classmethod
    def from_decay_rate(cls, a: float) -> "NoiseSpec":
        if a < 0.0:
            raise ValidationError("decay rate must be >= 0", code="out-of-range")
        return cls(1.0 - math.exp(-a))


@dataclass(frozen=True)
class LowDepthTrace:
    """Per-power shot and marked-count record of one schedule run.

    Marked counts may be real-valued so exact expectation values can be
    fitted; schedule runs always produce integers.
    """

    schedule: tuple[int, ...]
    shots: tuple[int, ...]
    marked: tuple[float, ...]

    def __post_init__(self):
        # operator.index, not int: a power or shot count of 1.5 is refused, not truncated
        try:
            object.__setattr__(self, "schedule", tuple(map(operator.index, self.schedule)))
        except TypeError:
            raise ValidationError("schedule powers must be integers",
                                  code="invalid-schedule") from None
        try:
            object.__setattr__(self, "shots", tuple(map(operator.index, self.shots)))
        except TypeError:
            raise ValidationError("shots must be integers", code="invalid-shots") from None
        object.__setattr__(self, "marked", tuple(float(x) for x in self.marked))
        if not self.schedule:
            raise ValidationError("schedule must be nonempty", code="invalid-schedule")
        if len(self.shots) != len(self.schedule) or len(self.marked) != len(self.schedule):
            raise ValidationError("schedule, shots, and marked must align",
                                  code="invalid-schedule")
        if any(l < 0 for l in self.schedule) or len(set(self.schedule)) != len(self.schedule):
            raise ValidationError("schedule powers must be distinct and >= 0",
                                  code="invalid-schedule")
        if any(n < 1 for n in self.shots):
            raise ValidationError("shots must be >= 1 for every power", code="invalid-shots")
        if any(not 0 <= m <= n for m, n in zip(self.marked, self.shots)):
            raise ValidationError("marked counts must lie in [0, shots]",
                                  code="invalid-counts")

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(m / n for m, n in zip(self.marked, self.shots))


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters; ``probability = sin^2(theta/2)`` with theta in [0, pi].

    The parameters are those of the start with the lowest loss among
    ``n_starts`` starts, the grid points the solver refined (4 for the sine
    fit, 12 for the damped model). Every start within the solver's relative
    tolerance of that loss reached the same optimum; ``iterations`` counts
    the solver iterations of the first of them to settle there, a converged
    one if any did, and ``converged`` is false when none settled before the
    iteration budget ran out.
    """

    theta: float
    a: float
    f: float
    probability: float
    loss: float
    iterations: int
    converged: bool
    n_starts: int


def predict(theta: float, power, a: float, f: float):
    """Expected marked fraction after ``power`` Grover applications.

    At a=0 this is exactly sin^2((2*power+1)*theta/2). ``power`` may be an
    array (and real-valued, for plotting the fitted curve).
    """
    if not 0.0 <= f <= 1.0:
        raise ValidationError(f"f = {f!r} outside [0, 1]", code="out-of-range")
    ell = np.asarray(power, dtype=float)
    signal = np.sin((2.0 * ell + 1.0) * theta / 2.0) ** 2
    decay = np.exp(-a * ell)
    value = decay * signal + (1.0 - decay) * f
    return float(value) if np.isscalar(power) else value


_MAX_SHOTS = 1 << 53
"""Most shots one power may take: a trace holds its counts as floats, which
hold every integer up to 2^53 exactly."""


def run_schedule(model: NetworkModel, horizon: int, spec: GroverSpec, schedule,
                 shots, noise: NoiseSpec | None = None, seed=0) -> LowDepthTrace:
    """Run the model once and draw each scheduled power's marked count.

    Power l's count is Binomial(shots, s sin^2((2l+1)a) + (1 - s) 2^-m), with
    s = (1 - epsilon)^l the channel's survival, sin(a) = sqrt(p) and m the
    marked nodes, drawn from the stream seeded by (seed, l): any two
    schedules agree on their common powers. ``shots`` is one integer for
    every power or a sequence of one per power; shots past 2^53 are refused
    before the model runs.
    """
    schedule = tuple(schedule)
    try:
        per_shots = (tuple(map(operator.index, shots)) if np.iterable(shots)
                     else (operator.index(shots),) * len(schedule))
    except TypeError:
        raise ValidationError("shots must be an integer or a sequence of integers",
                              code="invalid-shots") from None
    if len(per_shots) != len(schedule):
        raise ValidationError("one shot count per schedule entry required",
                              code="invalid-shots")
    # the trace's checks, before the run; it takes the powers as integers
    schedule = LowDepthTrace(schedule, per_shots, (0,) * len(schedule)).schedule
    if max(per_shots) > _MAX_SHOTS:
        raise ResourceLimitError("a shot count exceeds 2^53, the most a trace's float counts "
                                 "hold exactly")
    epsilon = noise.per_grover_error if noise is not None else 0.0
    seeds = seed_tuple(seed)
    p, _ = _plane(model, horizon, spec)
    angle = _half_angle(p)
    scrambled = 0.5 ** len(spec.marked)
    counts = []
    for power, n in zip(schedule, per_shots):
        survival = (1.0 - epsilon) ** power
        hit = survival * math.sin((2 * power + 1) * angle) ** 2 + (1.0 - survival) * scrambled
        counts.append(int(np.random.default_rng((*seeds, power)).binomial(n, min(hit, 1.0))))
    return LowDepthTrace(schedule, per_shots, tuple(counts))


# --- fitting -------------------------------------------------------------------

_RATES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.5, 3.0)
"""The grid's decay rates at or above zero; ``fit_noise_model`` adds lo,
lo/4 and lo/16 for the lower bound lo on ``a``."""
_GRID_BLOCK = 1 << 20
"""Grid elements (angles x powers, or angles x rates on short schedules)
evaluated at a time, which bounds the grid's memory on long schedules."""
_MAX_ANGLES = 1 << 16
"""Most grid angles: the full resolution up to power 4095. Past it the grid
is coarser than the fastest oscillation, but its time and memory stay
bounded however far the schedule reaches."""
_SINE_STARTS = 4
"""Best grid angles the sine fit refines."""
_MAX_ITERS = 100
_TOL = 1e-10
"""Relative loss decrease, or root-mean-square residual, below which a start
has converged."""


def _fold(theta: float) -> float:
    t = theta % (2.0 * math.pi)
    return min(t, 2.0 * math.pi - t)


def _residuals(fractions: np.ndarray, ells: np.ndarray, sine_only: bool, free_f: bool):
    """Closure mapping a (starts, params) array to the residuals (starts, powers)
    and their analytic Jacobian (starts, powers, params).

    Sine-only fits have the single parameter theta; the damped model has
    (theta, a, f), and a pinned ``f`` gets a zero Jacobian column so it never
    moves.
    """
    odd = 2.0 * ells + 1.0
    half_odd, neg_ells = odd / 2.0, -ells

    def residuals(params):
        theta = params[:, 0:1]
        phase = odd * theta
        signal = np.sin(phase / 2.0)
        signal *= signal
        dsignal = np.sin(phase, out=phase)
        dsignal *= half_odd
        if sine_only:
            return signal - fractions, dsignal[:, :, None]
        a, f = params[:, 1:2], params[:, 2:3]
        decay = np.exp(-a * ells)
        shifted = signal - f
        jac = np.empty(decay.shape + (3,))
        np.multiply(decay, dsignal, out=jac[..., 0])
        np.multiply(neg_ells * decay, shifted, out=jac[..., 1])
        if free_f:
            np.subtract(1.0, decay, out=jac[..., 2])
        else:
            jac[..., 2] = 0.0
        shifted *= decay
        shifted += f
        shifted -= fractions
        return shifted, jac

    return residuals


def _solve_each(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every system of the batch; a singular one gets a NaN solution."""
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular system fails the whole batch
        out = np.full_like(rhs, np.nan)
        for i, (matrix, vector) in enumerate(zip(matrices, rhs)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.solve(matrix, vector)
        return out


def _levenberg_marquardt(residuals, starts: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                         max_iters: int, tol: float):
    """Box-projected Levenberg-Marquardt from every start row in lockstep.

    Each iteration solves (J^T J + lambda I) delta = -J^T r for all live
    starts at once and clips the step into [lower, upper]. A step is taken
    only if it strictly lowers that start's loss (then lambda /= 3, else
    lambda *= 4), so per-start losses never increase; a start whose system
    is singular in floating point (e^{-a l} near its bound can make it so)
    gets a NaN step, which is rejected too. A start stops when an
    accepted step lowers its loss by at most ``tol`` relative or leaves its
    root-mean-square residual at most ``tol`` (an exact fit, where the
    relative decrease may stay large down to the rounding floor), or when
    lambda exceeds 1e12 (no step of any length helps). Returns the
    parameters, the losses, the iterations each start ran, and which starts
    were still live when ``max_iters`` ran out.

    The live starts are kept packed, in their original order, so an
    iteration works on them without gathering by index; a start's final
    state is written out once, when it stops.
    """
    params = starts.astype(float)
    res, jac = residuals(params)
    losses = (res * res).sum(axis=1)
    live = np.isfinite(losses)
    iterations = np.zeros(len(params), dtype=int)
    rows = np.flatnonzero(live)
    p, r, j, loss = params[rows], res[rows], jac[rows], losses[rows]
    damping = np.full(len(rows), 1e-3)
    eye = np.eye(params.shape[1])
    floor = tol * tol * res.shape[1]
    for count in range(1, max_iters + 1):
        if rows.size == 0:
            break
        jtr = np.einsum("spi,sp->si", j, r)
        # a parameter on its bound whose descent direction points outward is
        # held there, so the step solves for the free parameters only
        pinned = ((p <= lower) & (jtr > 0.0)) | ((p >= upper) & (jtr < 0.0))
        free_j = j
        if pinned.any():
            free_j = np.where(pinned[:, None, :], 0.0, j)
            jtr[pinned] = 0.0
        jtj = np.einsum("spi,spj->sij", free_j, free_j)
        jtj += damping[:, None, None] * eye
        cand = _solve_each(jtj, -jtr)
        cand += p
        np.minimum(np.maximum(cand, lower, out=cand), upper, out=cand)
        cand_res, cand_jac = residuals(cand)
        cand_loss = (cand_res * cand_res).sum(axis=1)
        better = cand_loss < loss
        stop = better & ((loss - cand_loss <= tol * loss) | (cand_loss <= floor))
        np.copyto(p, cand, where=better[:, None])
        np.copyto(r, cand_res, where=better[:, None])
        np.copyto(j, cand_jac, where=better[:, None, None])
        np.copyto(loss, cand_loss, where=better)
        damping = np.where(better, damping / 3.0, damping * 4.0)
        stop |= damping > 1e12
        if stop.any():
            done = rows[stop]
            params[done], losses[done], iterations[done] = p[stop], loss[stop], count
            live[done] = False
            keep = ~stop
            rows, p, r, j, loss, damping = (rows[keep], p[keep], r[keep], j[keep], loss[keep],
                                            damping[keep])
    params[rows], losses[rows], iterations[rows] = p, loss, max_iters
    return params, losses, iterations, live


def _fit(fractions: np.ndarray, ells: np.ndarray, starts: np.ndarray,
         free_f: bool, sine_only: bool) -> FitResult:
    residuals = _residuals(fractions[None, :], ells, sine_only, free_f)
    if sine_only:
        lower, upper = np.array([-np.inf]), np.array([np.inf])
    else:
        # a keeps e^{-a l} finite; f is a probability
        lower = np.array([-np.inf, _min_rate(ells), 0.0])
        upper = np.array([np.inf, np.inf, 1.0])
    params, losses, iterations, live = _levenberg_marquardt(
        residuals, starts, lower, upper, _MAX_ITERS, _TOL)
    if not np.isfinite(losses).any():
        raise FitDivergedError("no start produced a finite loss")
    folded = np.array([_fold(t) for t in params[:, 0]])
    params[:, 0] = folded
    res = residuals(params)[0]
    losses = (res * res).sum(axis=1)  # folding preserves the loss up to rounding
    best = np.lexsort((folded, losses))[0]
    # starts within the solver's tolerance of the lowest loss reached the same
    # optimum; report how the first of them to settle there got there
    tied = np.flatnonzero(losses - losses[best] <= _TOL * losses[best])
    first = tied[np.lexsort((iterations[tied], live[tied]))[0]]
    theta = float(params[best, 0])
    if sine_only:
        a_val, f_val = 0.0, 0.0
    else:
        a_val = float(params[best, 1])
        f_val = float(min(max(params[best, 2], 0.0), 1.0))
    return FitResult(theta, a_val, f_val, math.sin(theta / 2.0) ** 2, float(losses[best]),
                     int(iterations[first]), not live[first], len(starts))


def _min_rate(ells: np.ndarray) -> float:
    """Lower bound on ``a``: e^{-a l} <= e^{100} keeps squared residuals and
    J^T J finite."""
    return -min(1.0, 100.0 / max(ells.max(), 1.0))


def _profiled_grid(fractions: np.ndarray, ells: np.ndarray, rates: np.ndarray,
                   fix_f: float | None):
    """The damped model's loss, with f profiled out, on a (theta, a) grid.

    theta takes the values (i + 1/2) pi / N, N = max(64, 8 (2L + 1)) for the
    highest power L (at most ``_MAX_ANGLES``), so neighbours move the
    fastest term by at most a sixteenth of a turn. With d = e^{-a l},
    w = 1 - d and s the undamped signal, the model d s + w f is linear in
    f, so the least-squares f is clip(sum w (y - d s) / sum w^2, 0, 1):
    variable projection. Where sum w^2 = 0, f has no effect and is 0.5. A
    pinned ``fix_f`` is used as given. Returns the angles (N,), and the
    losses and f values (N, rates).

    For rates >= 0 (d <= 1) the loss is expanded into matrix products with
    the signal. The expansion cancels catastrophically where d is large, so
    negative rates sum their residuals directly. Angles go in blocks of
    about ``_GRID_BLOCK`` elements.
    """
    n = min(max(64, 8 * (2 * int(ells.max()) + 1)), _MAX_ANGLES)
    thetas = (np.arange(n) + 0.5) * (math.pi / n)
    odd = 2.0 * ells + 1.0
    decay = np.exp(-np.outer(rates, ells))  # (rates, powers)
    weight = 1.0 - decay
    wsq = (weight * weight).sum(axis=1)

    def profiled(wz, norm):
        if fix_f is not None:
            return np.full_like(wz, fix_f)
        f = np.divide(wz, norm, out=np.full_like(wz, 0.5), where=norm > 0.0)
        return np.clip(f, 0.0, 1.0, out=f)

    expanded = rates >= 0.0
    d_pos, w_pos, wsq_pos = decay[expanded], weight[expanded], wsq[expanded]
    yy, wy = fractions @ fractions, w_pos @ fractions
    losses = np.empty((n, len(rates)))
    fs = np.empty((n, len(rates)))
    rows = max(1, _GRID_BLOCK // max(len(ells), len(rates)))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        # s = sin^2((2l+1) theta/2), (rows, powers), formed in place
        signal = np.outer(thetas[block], odd / 2.0)
        np.sin(signal, out=signal)
        signal *= signal
        # sum z^2 and sum w z of the residual z = y - d s before f, per rate
        zz = yy - 2.0 * signal @ (d_pos * fractions).T + (signal * signal) @ (d_pos * d_pos).T
        wz = wy - signal @ (w_pos * d_pos).T
        f = profiled(wz, wsq_pos)
        losses[block, expanded] = zz - 2.0 * f * wz + f * f * wsq_pos
        fs[block, expanded] = f
        for j in np.flatnonzero(~expanded):
            z = np.multiply(signal, -decay[j])
            z += fractions
            f = profiled(z @ weight[j], wsq[j])
            z -= f[:, None] * weight[j]
            losses[block, j] = np.einsum("rp,rp->r", z, z)
            fs[block, j] = f
    return thetas, losses, fs


def fit_sine(trace: LowDepthTrace) -> FitResult:
    """Fit the undamped response sin^2((2l+1) theta/2) to the trace fractions,
    refining the ``_SINE_STARTS`` best angles of the profiled grid at a = 0."""
    ells = np.asarray(trace.schedule, dtype=float)
    fractions = np.asarray(trace.fractions)
    thetas, losses, _ = _profiled_grid(fractions, ells, np.zeros(1), None)
    best = np.argsort(losses[:, 0], kind="stable")[:_SINE_STARTS]
    return _fit(fractions, ells, thetas[best, None], free_f=False, sine_only=True)


def fit_noise_model(trace: LowDepthTrace, fix_f: float | None = None) -> FitResult:
    """Fit (theta, a, f) of the damped response; ``fix_f`` pins the scramble level.

    The solver starts from the best angle, and its profiled f, of each rate
    on the profiled grid: 12 starts. The negative-rate starts run the
    longest, but on some sparse schedules only one of the three reaches
    the lowest, a < 0, optimum. ``f`` is clamped to [0, 1]; ``a`` may
    go negative (slightly negative rates do occur on real data) down to -1,
    or -100 / max power for schedules past power 100, and predictions are
    not clamped.
    """
    if fix_f is not None and not 0.0 <= fix_f <= 1.0:
        raise ValidationError(f"fix_f = {fix_f!r} outside [0, 1]", code="out-of-range")
    ells = np.asarray(trace.schedule, dtype=float)
    fractions = np.asarray(trace.fractions)
    lo = _min_rate(ells)
    rates = np.array([lo, lo / 4.0, lo / 16.0, *_RATES])
    thetas, losses, fs = _profiled_grid(fractions, ells, rates, fix_f)
    best = np.argmin(losses, axis=0)
    columns = np.arange(len(rates))
    starts = np.stack([thetas[best], rates, fs[best, columns]], axis=-1)
    return _fit(fractions, ells, starts, free_f=fix_f is None, sine_only=False)


# --- schedule viability bounds ---------------------------------------------------

def _signal_detectable(a: float, power: int, shots: int, f: float) -> bool:
    """Strict inequality: mean absolute deviation below the damped amplitude."""
    deviation = math.sqrt(2.0 / math.pi) * math.sqrt(f * (1.0 - f) / shots)
    # where a * power <= 0 the amplitude is at least 1, above any deviation
    # (at most 0.4), and e^{-a*power} may overflow
    return a * power <= 0.0 or deviation < math.exp(-a * power)


def _check_bound_inputs(a: float, f: float) -> None:
    if not 0.0 < f < 1.0:
        raise ValidationError("bound needs f strictly inside (0, 1)", code="f-degenerate")
    if not math.isfinite(a):
        raise ValidationError(f"a = {a!r} is not finite", code="out-of-range")


def min_shots(a: float, power: int, f: float) -> int:
    """Smallest repetition count whose mean absolute deviation stays below the signal.

    Solves sqrt(2/pi) * sqrt(f(1-f)/N) < e^{-a*power} for integer N.
    ``power``, or an answer, past 2^53 (``_MAX_SHOTS``) raises
    ResourceLimitError.
    """
    _check_bound_inputs(a, f)
    if power < 0:
        raise ValidationError("power must be >= 0", code="invalid-power")
    if power > _MAX_SHOTS:  # before a * power, which may not fit a float
        raise ResourceLimitError("a power past 2^53 is refused")
    if not _signal_detectable(a, power, _MAX_SHOTS, f):
        raise ResourceLimitError(f"the signal at power {power} needs more than 2^53 shots")
    # the closed form, then +-1 steps to the exact integer
    n = max(math.ceil(math.exp(2.0 * a * power + math.log((2.0 / math.pi) * f * (1.0 - f)))), 1)
    while n > 1 and _signal_detectable(a, power, n - 1, f):
        n -= 1
    while not _signal_detectable(a, power, n, f):
        n += 1
    return n


def max_depth(a: float, shots: int, f: float) -> int:
    """Largest Grover power still above the noise floor for ``shots`` repetitions.

    ``shots``, or an answer, past 2^53 (``_MAX_SHOTS``) raises ResourceLimitError.
    """
    _check_bound_inputs(a, f)
    if a <= 0.0:
        raise ValidationError("depth is unbounded for a <= 0", code="a-nonpositive")
    if shots < 1:
        raise ValidationError("shots must be >= 1", code="invalid-shots")
    if shots > _MAX_SHOTS:
        raise ResourceLimitError("the shot count exceeds 2^53")
    if _signal_detectable(a, _MAX_SHOTS + 1, shots, f):
        raise ResourceLimitError(f"the signal at rate a = {a!r} outlasts power 2^53")
    # the closed form, then +-1 steps to the exact integer
    depth = max(math.floor((math.log(math.pi * shots / 2.0) - math.log(f * (1.0 - f)))
                           / (2.0 * a)), 0)
    while depth > 0 and not _signal_detectable(a, depth, shots, f):
        depth -= 1
    while _signal_detectable(a, depth + 1, shots, f):
        depth += 1
    return depth


# --- trace files -----------------------------------------------------------------

_TRACE_HEADER = ["l", "shots", "marked"]


def trace_to_text(trace: LowDepthTrace) -> str:
    """Serialize as delimited text with header ``l,shots,marked``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_TRACE_HEADER)
    for power, shots, marked in zip(trace.schedule, trace.shots, trace.marked):
        writer.writerow([power, shots, int(marked) if marked == int(marked) else marked])
    return out.getvalue()


def trace_from_text(text: str) -> LowDepthTrace:
    """Parse a ``l,shots,marked`` file back into a trace."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or rows[0] != _TRACE_HEADER:
        raise ParseError("trace file must start with header 'l,shots,marked'")
    schedule, shots, marked = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"trace line {lineno}: expected 3 fields, got {len(row)}")
        try:
            schedule.append(int(row[0]))
            shots.append(int(row[1]))
            marked.append(float(row[2]))
        except ValueError as exc:
            raise ParseError(f"trace line {lineno}: non-numeric field in {row!r}") from exc
    try:
        return LowDepthTrace(tuple(schedule), tuple(shots), tuple(marked))
    except ValidationError as exc:
        raise ParseError(f"trace file invalid: {exc}") from exc
