"""Parameter schedules for the generalized averaged iteration
x_{n+1} = alpha_n*x_n + beta_n*T(x_n) + r_n and their proof moduli.

A schedule carries, besides the three parameter streams, the quantitative
hypotheses as explicit objects:

* a rate of divergence of the coupling series     sum alpha_n*beta_n/(alpha_n+beta_n),
* the summable defect series  sum (1 - alpha_n - beta_n)  and perturbation
  series  sum ||r_n||, each one :class:`Series` (``ZERO_SERIES`` is the zero
  series, :func:`inverse_square_series` is  sum scale/(n+offset)^2).

Moduli are proof objects: constructors either derive them from a closed form
that is provably valid or require the caller to supply them; they are never
inferred from samples.  Every stream is array-native: it takes an index or an
index array and returns values of the same shape (a vector stream appends the
dimension), so a window of a schedule costs one call per chunk of indices,
not one per index.  A stream declares its head, the prefix after which
every entry repeats the last bit for bit (:func:`settled_from`): a table is
a :class:`HeadStream`, whose readers take the table instead of calling it,
and r_star/(n+offset)^2 an :class:`InverseSquareStream`.  Any other stream
is held whole over the horizon.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Union

import numpy as np

from .moduli import (
    CHECK_TOL,
    ZERO_CAUCHY,
    CauchyReport,
    DivergenceReport,
    RateFn,
    RateKind,
    ceil_int,
    check_series_cauchy_modulus,
    divergence_report_of,
    divergence_targets,
    inverse_square_modulus,
)

#: index (array) -> value (array of the index's shape)
Stream = Callable[[Union[int, np.ndarray]], Union[float, np.ndarray]]

#: slack of the range check on the averaging weights
RANGE_TOL = 1e-12
#: the Cauchy contracts of the two series are checked for k <= HYPOTHESES_K_MAX
HYPOTHESES_K_MAX = 20
#: the divergence rate is checked for targets n <= DIVERGENCE_N_MAX at most
DIVERGENCE_N_MAX = 2000
#: findings kept per range check
FINDINGS_MAX = 20
#: indices per call of a stream in :meth:`Window.read` and the chunk of the
#: engine's folds (the ``K_z`` accumulation, the audit and the settled CSV
#: tail), so that none of them builds a temporary of the horizon
CSV_CHUNK = 4096


def coupling_cap(lam: float) -> int:
    """Smallest integer dominating 1/(lam*(1-lam)); at least 4."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"averaging weight must lie in (0, 1), got {lam}")
    return ceil_int(1.0 / (lam * (1.0 - lam)))


@dataclass(frozen=True)
class Series:
    """What the rate theorem needs of a summable nonnegative series.

    ``modulus`` is a Cauchy modulus of its partial sums and ``bound`` an
    integer bound on its sum; ``tail(m)``, when given, bounds the sum past
    index m; ``zero`` declares the series identically zero.
    """

    modulus: RateFn
    bound: int
    tail: Optional[Callable[[int], float]] = None
    zero: bool = False


ZERO_SERIES = Series(ZERO_CAUCHY, 0, zero=True)


def inverse_square_series(scale: float, offset: int) -> Series:
    """sum_n scale/(n+offset)^2 with the modulus of
    :func:`~km_rates.moduli.inverse_square_modulus`, the paper's bound
    2*ceil(scale) and the tail bound scale/(m+offset), the double nearest
    to it for every m, also past the double range.

    Raises OverflowError when the sum, at most scale*(1/offset + 1/offset^2),
    is not a finite double.
    """
    modulus = inverse_square_modulus(scale, offset)
    ceil_int(scale * (1.0 / offset + 1.0 / (offset * offset)))
    # an int quotient is correctly rounded at any size
    num, den = float(scale).as_integer_ratio()
    return Series(modulus, 2 * ceil_int(scale),
                  lambda m: num / (den * (m + offset)), scale == 0.0)


@dataclass(frozen=True)
class Schedule:
    """Immutable parameter triple with its divergence rate and two summable series.

    ``alpha``, ``beta`` and ``perturbation_norm`` map an index or an index
    array to values of its shape; ``perturbation`` maps ``ns`` to vectors of
    shape ``shape(ns) + (dim,)``, or to zeros of shape ``shape(ns) + (1,)``
    (the zero stream).  A result of another shape is a ValueError.
    """

    alpha: Stream
    beta: Stream
    perturbation: Stream
    perturbation_norm: Stream
    weight_divergence: RateFn
    defect_series: Series
    perturbation_series: Series

    def defect(self, n):
        return 1.0 - self.alpha(n) - self.beta(n)


def repeated(one: np.ndarray, shape: tuple) -> np.ndarray:
    """The one entry of ``one``, a double or a row of them, repeated to
    ``shape``, which ends in the row's shape: a read-only view of it with
    zero strides over the leading axes, ``np.broadcast_to`` without its
    Python-level cost."""
    strides = (0,) * (len(shape) - one.ndim + 1) + one.strides[1:]
    view = np.ndarray(shape, one.dtype, one, 0, strides)
    view.flags.writeable = False
    return view


def held(values: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """Entries n0 .. n1 - 1 of a stream whose array ``values`` holds its head:
    entry n is ``values[min(n, len(values) - 1)]``, a double or a row.  A
    view of ``values`` when they cover [n0, n1); past the head, from n0 >=
    len - 1 on, a read-only zero-stride view of the last entry; else a new
    read-only array."""
    size = len(values)
    if n1 <= size:
        return values[n0:n1]
    if n0 >= size - 1:
        return repeated(values[-1:], (n1 - n0,) + values.shape[1:])
    out = np.empty((n1 - n0,) + values.shape[1:])
    split = size - n0
    out[:split] = values[n0:]
    out[split:] = values[-1]
    out.flags.writeable = False
    return out


def held_from(values: np.ndarray) -> int:
    """The smallest s such that every entry from s on, a double or a row,
    has the bits of the last."""
    bits = values.view(np.uint64).reshape(len(values), -1)
    differ = (bits != bits[-1]).any(axis=1)
    return len(differ) - int(differ[::-1].argmax()) if differ.any() else 0


def settled_from(stream: Stream, n_max: int) -> int:
    """The smallest s from which ``stream`` keeps the bits of its entry n_max
    on [s, n_max], as its ``settled`` method declares; n_max without one."""
    settled = getattr(stream, "settled", None)
    return n_max if settled is None else settled(n_max)


class HeadStream:
    """A stream given by a finite table, its ``head``: entry n is
    ``head[min(n, len(head) - 1)]``, a double or a row of doubles, the rule
    of :func:`held`.  :func:`read` takes the head and never calls it over
    a horizon; a call on an index or an index array gives the entries of
    its shape, as a read-only zero-stride view when every index is past the
    head, else a gather."""

    __slots__ = ("head",)

    def __init__(self, head):
        head = np.array(head, dtype=float)
        if head.ndim < 1 or not len(head):
            raise ValueError("a head stream needs a table of at least one entry")
        head.flags.writeable = False
        self.head = head

    def __call__(self, n):
        head = self.head
        last = len(head) - 1
        if not last or np.min(n, initial=last) >= last:  # every index is past the head
            return repeated(head[last:], np.shape(n) + head.shape[1:])
        return head[np.minimum(n, last)]

    def settled(self, n_max: int) -> int:
        """:func:`held_from` of the table on [0, n_max]."""
        return held_from(self.head[:n_max + 1])


class InverseSquareStream:
    """The stream n -> scale/(n+offset)^2, ``scale`` a double or a row.  No
    coordinate's magnitude grows with n, so [s, n_max] keeps the bits of
    entry n_max once entry s does: :meth:`settled` is n_max when entry
    n_max - 1 differs, else one bisection below it."""

    __slots__ = ("scale", "offset")

    def __init__(self, scale, offset: int):
        self.scale, self.offset = np.asarray(scale, dtype=float), offset

    def __call__(self, n):
        # the double of the integer (n+offset)^2: exact below 2^53, rounded once above
        d = np.array(n, dtype=float)
        d += self.offset
        d *= d
        if self.scale.ndim:
            return self.scale / d[..., None]
        return np.divide(self.scale, d, out=d)

    def settled(self, n_max: int) -> int:
        def keeps(n):
            return bool((self(np.array([n])).view(np.uint64) == last).all())

        last = self(np.array([n_max])).view(np.uint64)
        if n_max == 0 or not keeps(n_max - 1):
            return n_max
        return bisect.bisect_left(range(n_max - 1), True, key=keeps)


def read(stream: Stream, n0: int, n1: int) -> np.ndarray:
    """Entries n0 .. n1 - 1 of ``stream`` as floats: a :class:`HeadStream`'s
    through :func:`held`, with no call, and any other stream's in one call
    on ``np.arange(n0, n1)``.  The caller checks the shape."""
    if isinstance(stream, HeadStream):
        return held(stream.head, n0, n1)
    return np.asarray(stream(np.arange(n0, n1)), dtype=float)


@dataclass(frozen=True)
class Window:
    """The scalar streams alpha_n, beta_n and ||r_n|| of a schedule on [0,
    n_max], which the range check, the engine and the premise check each
    :meth:`read` for themselves.

    Each stream field holds the head of its stream as a read-only array of
    at most n_max + 1 entries: entry n is the head's entry min(n, len - 1)
    (see :func:`held` and :meth:`values`).
    """

    alpha: np.ndarray
    beta: np.ndarray
    r_norm: np.ndarray
    n_max: int

    @classmethod
    def read(cls, schedule: Schedule, n_max: int) -> Window:
        """Each stream on [0, s], s its :func:`settled_from` n_max, through
        the module's :func:`read`, one per ``CSV_CHUNK`` indices, into one
        array of s + 1 entries, so a stream that declares no settled index
        is held whole.  A result that is not one double per index breaks the
        stream contract and raises ValueError."""
        heads = []
        for stream in (schedule.alpha, schedule.beta, schedule.perturbation_norm):
            end = settled_from(stream, n_max) + 1
            head = np.empty(end)
            for n0 in range(0, end, CSV_CHUNK):
                n1 = min(n0 + CSV_CHUNK, end)
                values = read(stream, n0, n1)
                if values.shape != (n1 - n0,):
                    raise ValueError(f"stream returned shape {values.shape} "
                                     f"for indices of shape {(n1 - n0,)}")
                head[n0:n1] = values
            head.flags.writeable = False
            heads.append(head)
        return cls(*heads, n_max)

    @property
    def settled(self) -> int:
        """The settled index s from which alpha, beta and ||r_n|| all keep
        the bits of entry n_max: the last index of the longest head."""
        return max(v.size for v in (self.alpha, self.beta, self.r_norm)) - 1

    def values(self, n0: int, n1: int) -> tuple:
        """alpha, beta and ||r_n|| on [n0, n1), through :func:`held`."""
        return tuple(held(v, n0, n1) for v in (self.alpha, self.beta, self.r_norm))

    def range_prefix(self, length: int) -> tuple:
        """alpha, beta and ||r_n|| on the first min(length, s + FINDINGS_MAX)
        indices.  Where an entry past s breaks a check, so do entry s and
        the FINDINGS_MAX - 1 after it, so a check that keeps its first
        FINDINGS_MAX findings finds those of the first ``length`` indices."""
        return self.values(0, min(length, self.settled + FINDINGS_MAX))


def constant_stream(value: float) -> HeadStream:
    """The stream n -> value, shaped like n: the :class:`HeadStream` of the
    one double, which a window reads without a call and a call reads as a
    read-only zero-stride view, so no call allocates its shape; a -0.0
    constant reads +0.0, as 0.0 + value does."""
    return HeadStream([float(value) + 0.0])


def inverse_square_perturbation(r_star, offset: int = 1, norm: Optional[Callable] = None):
    """The stream r_n = r_star/(n+offset)^2.

    Returns the :class:`InverseSquareStream` s of r_star and ||r_star||,
    taken in ``norm``, and the :func:`inverse_square_series` of ||r_star||.
    An absent r_star is the zero stream and needs no norm: its vectors have
    the single coordinate 0, which broadcasts against any dimension, and it
    and its norms are :class:`HeadStream` s of one entry.
    """
    if offset < 1:
        raise ValueError(f"decay offset must be a positive integer, got {offset}")
    if r_star is None:  # +0.0 at every index, as 0.0/(n+offset)^2 is
        return (HeadStream(np.zeros((1, 1))), constant_stream(0.0),
                inverse_square_series(0.0, offset))
    if norm is None:
        raise TypeError("a perturbation r_star needs the norm of its space (norm=space.norm)")
    r_star = np.asarray(r_star, dtype=float)
    r_norm = float(norm(r_star))
    return (InverseSquareStream(r_star, offset), InverseSquareStream(r_norm, offset),
            inverse_square_series(r_norm, offset))


def make_example1(
    lam: float,
    offset: int = 1,
    r_star=None,
    norm: Optional[Callable] = None,
) -> Schedule:
    """Constant averaging alpha = 1-lam, beta = lam with an inverse-square
    perturbation r_n = r_star/(n+offset)^2; an r_star needs ``norm``."""
    cap = coupling_cap(lam)
    perturbation, perturbation_norm, series = inverse_square_perturbation(r_star, offset, norm)
    return Schedule(
        alpha=constant_stream(1.0 - lam),
        beta=constant_stream(lam),
        perturbation=perturbation,
        perturbation_norm=perturbation_norm,
        weight_divergence=RateFn.affine(cap, 0, RateKind.RATE_OF_DIVERGENCE,
                                        f"constant-weight coupling divergence (cap={cap})"),
        defect_series=ZERO_SERIES,
        perturbation_series=series,
    )


def make_example2(
    lam: float,
    J: int = 2,
    offset: int = 1,
    r_star=None,
    norm: Optional[Callable] = None,
) -> Schedule:
    """alpha = lam, beta_n = 1 - lam - 1/(n+J)^2, inverse-square perturbation.

    Needs lam < (J^2-1)/J^2 so that beta_0 > 0; an r_star needs ``norm``.
    """
    if J < 2:
        raise ValueError(f"defect decay offset must be at least 2, got {J}")
    hi = (J * J - 1.0) / (J * J)
    if not 0.0 < lam < hi:
        raise ValueError(f"averaging weight must lie in (0, {hi}) for this family, got {lam}")
    cap = coupling_cap(lam)
    perturbation, perturbation_norm, series = inverse_square_perturbation(r_star, offset, norm)
    return Schedule(
        alpha=constant_stream(lam),
        beta=lambda n: 1.0 - lam - 1.0 / (n + J) ** 2,
        perturbation=perturbation,
        perturbation_norm=perturbation_norm,
        weight_divergence=RateFn.affine(cap, 2 * cap - 1, RateKind.RATE_OF_DIVERGENCE,
                                        f"shrinking-weight coupling divergence (cap={cap})"),
        defect_series=inverse_square_series(1.0, J),
        perturbation_series=series,
    )


def make_inexact_km(
    beta: Union[float, Stream],
    weight_divergence: RateFn,
    perturbation: Optional[Stream] = None,
    perturbation_series: Series = ZERO_SERIES,
    perturbation_norm: Optional[Stream] = None,
) -> Schedule:
    """alpha_n = 1 - beta_n; the defect vanishes and the coupling series is
    sum beta_n*(1-beta_n), for which the caller supplies the divergence rate.

    A number beta is its :func:`constant_stream`; the alpha of a
    :class:`HeadStream` beta is the head stream of 1.0 - head, the same IEEE
    subtraction per entry as 1.0 - beta(n).  A ``perturbation`` comes with
    its ``perturbation_norm`` stream; no perturbation is the zero stream,
    and its series is declared zero.  The constructor passes moduli through
    unchanged; it never synthesizes one.
    """
    beta_fn = beta if callable(beta) else constant_stream(beta)
    alpha_fn = (HeadStream(1.0 - beta_fn.head) if isinstance(beta_fn, HeadStream)
                else lambda n: 1.0 - beta(n))
    if weight_divergence.kind is not RateKind.RATE_OF_DIVERGENCE:
        raise ValueError("the coupling series needs a rate of divergence")
    if perturbation is None:
        perturbation, perturbation_norm, _ = inverse_square_perturbation(None)
        perturbation_series = replace(perturbation_series, zero=True)
    elif perturbation_norm is None:
        raise TypeError("a perturbation needs its perturbation_norm stream")
    return Schedule(
        alpha=alpha_fn,
        beta=beta_fn,
        perturbation=perturbation,
        perturbation_norm=perturbation_norm,
        weight_divergence=weight_divergence,
        defect_series=ZERO_SERIES,
        perturbation_series=perturbation_series,
    )


def make_classical_km(beta: float) -> Schedule:
    """Unperturbed averaged iteration with constant weight: Example 1 without
    a perturbation.

    For constant beta the coupling series has the closed-form divergence rate
    k -> k*ceil(1/(beta*(1-beta))): the first k*cap+1 summands already add up
    to at least k.
    """
    return make_example1(beta)


def make_anchor(base: Schedule, u, norm: Callable) -> Schedule:
    """Replace the perturbation by r_n = (1 - alpha_n - beta_n)*u, with ||u||
    taken in ``norm``.

    The perturbation series inherits the defect series rescaled by ceil||u||:
    modulus k -> defect modulus(ceil||u||*(k+1) - 1), bound = defect bound *
    ceil||u||, tail = ||u|| * defect tail.  A zero anchor is rejected; use a
    zero perturbation instead.  Over :class:`HeadStream` weights both
    streams are head streams of the defect's table, computed entrywise.
    """
    u = np.asarray(u, dtype=float)
    nu = norm(u)
    if nu == 0.0:
        raise ValueError("anchor direction must be nonzero; use a zero perturbation instead")
    cu = max(1, ceil_int(nu))  # ||u|| > 0, however small
    if isinstance(base.alpha, HeadStream) and isinstance(base.beta, HeadStream):
        size = max(len(base.alpha.head), len(base.beta.head))
        table = 1.0 - held(base.alpha.head, 0, size) - held(base.beta.head, 0, size)
        streams = HeadStream(table[..., None] * u), HeadStream(np.abs(table) * nu)
    else:
        streams = (lambda n: np.asarray(base.defect(n))[..., None] * u,
                   lambda n: np.abs(base.defect(n)) * nu)
    defect = base.defect_series
    return replace(
        base,
        perturbation=streams[0],
        perturbation_norm=streams[1],
        perturbation_series=Series(
            RateFn(lambda k: defect.modulus(cu * (k + 1) - 1), RateKind.CAUCHY_MODULUS,
                   description="anchored perturbation modulus"),
            defect.bound * cu,
            None if defect.tail is None else lambda m: nu * defect.tail(m),
            defect.zero),
    )


@dataclass(frozen=True)
class Finding:
    check: str
    index: Optional[int]
    message: str


def range_findings(alpha: np.ndarray, beta: np.ndarray) -> List[Finding]:
    """The range check of the averaging weights' values alpha_n and beta_n,
    n the position in the arrays: both lie in [0, 1] and 0 < alpha_n + beta_n
    <= 1, each up to RANGE_TOL; NaN is out of range.  Returns up to
    FINDINGS_MAX findings per check, checks in the order above, indices
    ascending within each."""
    with np.errstate(over="ignore"):  # a sum past the double range is inf, out of range
        total = alpha + beta
    checks = (
        ("alpha_range", "alpha out of [0, 1]", alpha,
         ~((alpha >= -RANGE_TOL) & (alpha <= 1.0 + RANGE_TOL))),
        ("beta_range", "beta out of [0, 1]", beta,
         ~((beta >= -RANGE_TOL) & (beta <= 1.0 + RANGE_TOL))),
        ("sum_range", "alpha+beta exceeds 1", total, total > 1.0 + RANGE_TOL),
        ("sum_positive", "alpha+beta not positive", total, total <= 0.0),
    )
    return [Finding(check, int(i), f"{message} at n={i}: {values[i]}")
            for check, message, values, bad in checks
            for i in np.flatnonzero(bad)[:FINDINGS_MAX]]


@dataclass
class HypothesesReport:
    """Window-stated verdict on the schedule hypotheses.

    Everything is checked on [0, window] only; the report never claims more.
    """

    window: int
    findings: List[Finding]
    defect_report: Optional[CauchyReport]
    perturbation_report: Optional[CauchyReport]
    divergence_report: DivergenceReport
    defect_window_sum: float
    perturbation_window_sum: float

    @property
    def passed(self) -> bool:
        return (not self.findings and self.divergence_report.passed
                and all(r is None or r.passed for r in (self.defect_report,
                                                        self.perturbation_report)))

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "passed": self.passed,
            "findings": [
                {"check": f.check, "index": f.index, "message": f.message}
                for f in self.findings[:50]
            ],
            "defect_series": None if self.defect_report is None else self.defect_report.to_dict(),
            "perturbation_series": None if self.perturbation_report is None
            else self.perturbation_report.to_dict(),
            "coupling_divergence": self.divergence_report.to_dict(),
            "defect_window_sum": self.defect_window_sum,
            "perturbation_window_sum": self.perturbation_window_sum,
        }


def verify_hypotheses(schedule: Schedule, n_max: int) -> HypothesesReport:
    """Check ranges (see :func:`range_findings`), modulus contracts and sum
    bounds on [0, n_max].

    The values are those of the schedule's :meth:`Window.read` on [0,
    n_max]; the defect and coupling summands are derived from them.  All findings land in the
    report; none raises.  The two Cauchy contracts are checked for k <=
    HYPOTHESES_K_MAX, with the analytic tail bounds when the series provide
    them and on the window only otherwise; the divergence rate for targets n
    <= min(n_max, DIVERGENCE_N_MAX).  An index below is a position in the
    window's arrays.

    Each check reads no further than its result needs, taking an entry past
    the window's settled index as the entry there: the range and sign
    checks read :meth:`Window.range_prefix`, the zero checks the head, and
    the divergence check the prefix its rate values reach.  A window sum and
    a series' partial sums are taken over the whole window, as ``np.sum``
    adds in pairs; only a sum of +0.0 entries, +0.0 in any order, is not.
    """
    window = Window.read(schedule, n_max)
    alpha, beta, pert = window.range_prefix(n_max + 1)
    findings = range_findings(alpha, beta)
    findings += [Finding("perturbation_norm", int(n), f"negative perturbation norm at n={n}")
                 for n in np.flatnonzero(pert < -RANGE_TOL)[:FINDINGS_MAX]]
    # a negative summand voids the series contracts; the findings say why
    series_checked = not findings

    # the coupling alpha*beta/(alpha+beta) on the prefix that the rate values
    # reach; it is NaN or inf only where the range check reports the weights
    targets = divergence_targets(schedule.weight_divergence, min(n_max, DIVERGENCE_N_MAX),
                                 n_max + 1)
    alpha, beta, _ = window.values(0, targets.max(initial=-1) + 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coupling = alpha * beta
        coupling /= alpha + beta
        # the defect (1 - alpha) - beta on the head [0, s]
        alpha, beta, _ = window.values(0, window.settled + 1)
        defect = np.subtract(1.0, alpha)
        defect -= beta
    divergence_report = divergence_report_of(coupling, targets)

    reports, sums = [], []
    # a defect declared zero may not stray either way; a norm is checked as is
    for name, head, magnitude, series in (
            ("defect", defect, np.abs, schedule.defect_series),
            ("perturbation", window.r_norm, np.asarray, schedule.perturbation_series)):
        report = None
        if series.zero and not head.view(np.uint64).any():
            window_sum = 0.0
        else:
            values = held(head, 0, n_max + 1)
            window_sum = float(np.sum(values))
        if series.zero:
            size = magnitude(head)
            if float(np.max(size)) > CHECK_TOL:
                n_bad = int(np.argmax(size))
                findings.append(Finding(f"{name}_zero", n_bad,
                                        f"{name} declared zero but nonzero at n={n_bad}"))
        else:
            if series_checked:
                report = check_series_cauchy_modulus(values, series.modulus, HYPOTHESES_K_MAX,
                                                     tail_bound=series.tail)
            if window_sum - CHECK_TOL > series.bound:  # exact for any int bound
                findings.append(Finding(f"{name}_sum_bound", None,
                                        f"window {name} sum {window_sum} exceeds bound "
                                        f"{series.bound}"))
        reports.append(report)
        sums.append(window_sum)

    return HypothesesReport(
        window=n_max,
        findings=findings,
        defect_report=reports[0],
        perturbation_report=reports[1],
        divergence_report=divergence_report,
        defect_window_sum=sums[0],
        perturbation_window_sum=sums[1],
    )
