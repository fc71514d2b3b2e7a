"""Synthetic request-trace generation.

Two traffic models are provided:

* IRM: a fixed catalogue of N contents requested i.i.d. with Zipf(alpha)
  probabilities, timestamps uniform over the horizon.
* Shot noise: contents arrive by a homogeneous Poisson process (rate
  per class); each content m then emits requests as an inhomogeneous
  Poisson process with instantaneous rate V_m * shape(t - birth_m),
  where the popularity shape is a normalized causal profile
  (exponential or uniform) whose scale is tied to the class's target
  effective life-span.  Classes can instead be marked "stationary",
  placing each content's requests uniformly over the whole horizon.

An optional day/night modulation multiplies every content's rate by
f(t) = 1 + sin(2*pi*t) (t in days), realized by exact thinning against
the bound f <= 2.

Generation is deterministic given a seed: every draw comes from
``np.random.default_rng(key)`` for a key (seed mod 2**64, tag, ...).  A
shot-noise class draws from the one stream of its key (seed, births tag,
class id): its births, then the rest for all its contents at once, in id
order.  One per-content draw makes the rest for any set of contents, in
this order: the volume indices (classes with a volume sample only), the
Poisson counts, the candidate uniforms, from which it places the request
times, and, under day/night, the thinning uniforms.  :func:`shot_requests`
is that draw for one content.  One function draws every class of a run
and sorts their requests into trace order: :func:`generate_snm` wraps its
result in a :class:`Trace`, and :class:`SnmEventStream` yields it one
event at a time.  So both produce identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from .trace import RequestEvent, Trace, _require, _require_bool, _require_int, format_cell

__all__ = [
    "PopularityShape", "IrmConfig", "SnmClassConfig", "SnmConfig", "SnmEventStream", "SHAPE_KINDS",
    "daynight_factor", "lifespan_to_L", "shot_requests", "generate_irm", "generate_snm",
    "zipf_probabilities", "parse_snm_config", "snm_config_files",
]

SHAPE_KINDS = ("exponential", "uniform", "stationary")

# RNG stream tags: every random draw comes from a generator keyed by
# (seed, tag, ...), which is the package's reproducibility contract.
_TAG_IRM = 0x12
_TAG_BIRTHS = 0xB1
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy draws no Poisson count of a larger mean ("lam value too large"):
# the configs bound every value that becomes one
_POISSON_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _require_poisson(key: str, mean: float) -> None:
    if not mean <= _POISSON_MAX:
        raise ValueError(f"{key} must be <= {_POISSON_MAX!r}, numpy's Poisson limit, got {mean!r}")


@dataclass(frozen=True)
class PopularityShape:
    """Normalized causal request-rate profile.

    exponential: density (1/L) exp(-t/L) on t >= 0
    uniform:     density 1/(2L) on [0, 2L]

    Both integrate to 1 over [0, inf) and vanish for t < 0.
    """

    kind: str
    L: float  # scale parameter, days

    def __post_init__(self):
        if self.kind not in ("exponential", "uniform"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        _require("L", self.L)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            return np.where(t < 0, 0.0, np.exp(-np.maximum(t, 0.0) / self.L) / self.L)
        return np.where((t < 0) | (t > 2 * self.L), 0.0, 1.0 / (2 * self.L))

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            return np.where(t < 0, 0.0, -np.expm1(-np.maximum(t, 0.0) / self.L))
        return np.clip(t / (2 * self.L), 0.0, 1.0)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if self.kind == "exponential":
            return -self.L * np.log1p(-q)
        return 2 * self.L * q


@dataclass(frozen=True)
class IrmConfig:
    catalogue_size: int
    alpha: float
    total_requests: int
    horizon: float  # days

    def __post_init__(self):
        _require_int("catalogue_size", self.catalogue_size, lo=1)
        _require("alpha", self.alpha, positive=False)
        _require_int("total_requests", self.total_requests, lo=1, hi=2**31 - 1)  # reuse_distances' limit
        _require("horizon", self.horizon)


@dataclass(frozen=True)
class SnmClassConfig:
    """Generation parameters for one content class.

    ``volumes`` is either a constant mean request count (any 0-d real,
    held as a Python float) or a sequence of observed volumes to resample
    from (held as a tuple of Python floats, which cannot change after the
    check).  Stationary classes ignore the life-span and place requests
    uniformly over the horizon with count Poisson(V_m), which is how
    classes without a usable life-span estimate are handled.

    Rules shared with the config file: the class id is an integer >= 0,
    not a bool (a word of the class's RNG key); arrival rate, life-span
    (>= 0 if stationary) and a constant volume are finite and positive;
    a volume sample is a 1-D sequence of one or more finite values >= 0;
    twice the largest volume (a day/night candidate mean) is within
    numpy's Poisson limit.
    """

    class_id: int
    arrival_rate: float  # contents per day
    lifespan: float  # target effective life-span, days
    shape_kind: str  # one of SHAPE_KINDS
    volumes: float | tuple[float, ...]

    def __post_init__(self):
        where = f"class {self.class_id}"
        object.__setattr__(self, "class_id", _require_int(f"{where}: class id", self.class_id, lo=0))
        if self.shape_kind not in SHAPE_KINDS:
            raise ValueError(f"{where}: unknown shape {self.shape_kind!r}")
        _require(f"{where}: arrival_rate", self.arrival_rate)
        _require(f"{where}: lifespan_days", self.lifespan, positive=self.shape_kind != "stationary")
        sample = isinstance(self.volumes, (list, tuple)) or np.ndim(self.volumes) > 0
        if sample and len(self.volumes) == 0:
            raise ValueError(f"{where}: empty volume sample list")
        key = f"{where}: volumes sample" if sample else f"{where}: volumes"
        object.__setattr__(self, "volumes", _require(key, self.volumes, positive=not sample, sample=sample))
        _require_poisson(f"{where}: 2 * volumes", 2 * float(np.max(self.volumes)))


@dataclass(frozen=True)
class SnmConfig:
    """A full generation run: horizon (finite and positive, kept as
    given), seed (None or an integer, not a bool), modulation flag (a
    Python or numpy bool) and one or more classes, held as a tuple, with
    unique ids, each with expected births (arrival rate * horizon) within
    numpy's Poisson limit.  Frozen: ``dataclasses.replace`` makes a
    changed copy and checks it again."""

    horizon: float
    classes: tuple[SnmClassConfig, ...]
    seed: int | None = None
    daynight: bool = False

    def __post_init__(self):
        _require("horizon", self.horizon)
        if self.seed is not None:
            object.__setattr__(self, "seed", _require_int("seed", self.seed))
        _require_bool("daynight", self.daynight)
        if not self.classes:
            raise ValueError("class list must be non-empty")
        object.__setattr__(self, "classes", tuple(self.classes))
        ids = [cfg.class_id for cfg in self.classes]
        if len(set(ids)) < len(ids):
            raise ValueError(f"duplicate class id {next(k for k in ids if ids.count(k) > 1)}")
        for cfg in self.classes:
            _require_poisson(f"class {cfg.class_id}: arrival_rate * horizon", cfg.arrival_rate * self.horizon)


def daynight_factor(t):
    """Daily rate modulation f(t) = 1 + sin(2*pi*t), t in days."""
    return 1.0 + np.sin(2.0 * np.pi * np.asarray(t, dtype=float))


def lifespan_to_L(kind: str, lifespan: float) -> float:
    """Shape scale L that yields the target 0.1-to-0.9 quantile span.

    The effective life-span of a profile is the time between its 0.1 and
    0.9 quantiles: 1.6*L for the uniform shape (so L = 0.5*lifespan/0.8)
    and L*ln(9) for the exponential.
    """
    _require("lifespan", lifespan)
    if kind == "uniform":
        return lifespan / 1.6
    if kind == "exponential":
        return lifespan / math.log(9.0)
    raise ValueError(f"shape kind {kind!r} has no life-span scale")


def _draw_contents(rng: np.random.Generator, shape: PopularityShape | None, births: np.ndarray, volumes,
                   horizon: float, daynight: bool) -> tuple[np.ndarray, np.ndarray]:
    # Every draw after the births of contents born at ``births`` (ignored if stationary, shape None),
    # with a constant volume (a float) or a volume sample, in the order of the module docstring: their
    # request times, unsorted, and each one's owner, its place in ``births``.  Each step drops its
    # inputs as soon as its output exists, so that peak memory stays near one trace's columns.
    masses = np.ones_like(births) if shape is None else shape.cdf(horizon - births)
    if not isinstance(volumes, float):  # a volume sample: one resampled observation per content
        volumes = np.take(volumes, rng.integers(0, len(volumes), births.size))
    factor = 2.0 if daynight else 1.0  # under day/night, candidates at twice the rate
    owner = np.repeat(np.arange(births.size, dtype=np.int32), rng.poisson(factor * volumes * masses))
    t = rng.random(owner.size)
    if shape is None:
        t *= horizon  # uniform over [0, horizon]
    else:
        t = shape.quantile(np.multiply(t, masses[owner], out=t))
        t += births[owner]
        np.minimum(t, horizon, out=t)  # the quantile and the sum may round past the horizon
    if daynight:  # each candidate, at time t, kept with probability f(t)/2
        keep = rng.random(t.size) < 0.5 * daynight_factor(t)
        t, owner = t[keep], owner[keep]
    return t, owner


def shot_requests(
    shape: PopularityShape | None, birth: float, volume: float, horizon: float,
    rng: np.random.Generator, daynight: bool,
) -> np.ndarray:
    """Sorted absolute request times of one content: birth plus shot time, at most the horizon.

    Order-statistics construction of the inhomogeneous Poisson process
    with rate ``volume * shape(t - birth)``: the count is
    Poisson(volume * F(horizon - birth)) and the times are i.i.d. draws
    from the shape truncated to [birth, horizon]; with ``shape`` None,
    Poisson(volume) times uniform over [0, horizon] (a stationary
    content).  Under day/night modulation the candidates are drawn at
    the rate ``2 * volume * shape`` and each, at time t, is kept with
    probability f(t)/2, so the expected kept volume is
    volume * integral(shape * f): close to, but not exactly, ``volume``.
    """
    birth = _require("birth", birth, positive=False)
    horizon = _require("horizon", horizon)
    volume = _require("volume", volume, positive=False)  # a float, which _draw_contents reads as a constant volume
    _require_poisson("2 * volume", 2 * volume)
    _require_bool("daynight", daynight)
    if shape is not None and horizon < birth:
        raise ValueError(f"horizon {horizon!r} precedes birth {birth!r}")
    t, _ = _draw_contents(rng, shape, np.array([birth], float), volume, horizon, daynight)
    t.sort()
    return t


def zipf_probabilities(catalogue_size: int, alpha: float) -> np.ndarray:
    """Request probabilities proportional to 1/rank**alpha, normalized."""
    ranks = np.arange(1, catalogue_size + 1, dtype=float)
    weights = ranks ** -alpha
    return weights / weights.sum()


def generate_irm(config: IrmConfig, seed: int) -> Trace:
    """Independent-reference trace: i.i.d. Zipf draws at uniform times.

    Content ids are the popularity ranks ("r1" most popular).  Sampling
    is inverse-transform on the cumulative Zipf distribution.
    """
    rng = np.random.default_rng([_require_int("seed", seed) & _MASK64, _TAG_IRM])
    cum = np.cumsum(zipf_probabilities(config.catalogue_size, config.alpha))
    cum[-1] = 1.0
    ranks = np.searchsorted(cum, rng.random(config.total_requests), side="right") + 1
    times = np.sort(rng.uniform(0.0, config.horizon, config.total_requests))
    present = np.bincount(ranks) > 0
    used, codes = np.flatnonzero(present), (np.cumsum(present) - 1)[ranks]
    return Trace(times, codes, [f"r{n}" for n in used.tolist()], config.horizon)


def _class_shape(cfg: SnmClassConfig) -> PopularityShape | None:
    if cfg.shape_kind == "stationary":
        return None
    return PopularityShape(cfg.shape_kind, lifespan_to_L(cfg.shape_kind, cfg.lifespan))


def _draw_run(run: SnmConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    # Every request of a run in trace order, as its time and owner (the content's index in id-string
    # order, "c1_10" before "c1_2"), and every content's birth and id.  Classes go in id-prefix order
    # ("c12_" before "c1_"), each one's contents in id order with their requests together, so the
    # stable sort on time breaks ties by id.  Each class draws from its one stream in the order of the
    # module docstring; a stationary content's birth is 0, which _draw_contents ignores.
    times, owners, births, names = [], [], [], []
    for cfg in sorted(run.classes, key=lambda cfg: f"c{cfg.class_id}_"):
        rng = np.random.default_rng([run.seed & _MASK64, _TAG_BIRTHS, cfg.class_id])
        birth = np.sort(rng.uniform(0.0, run.horizon, rng.poisson(cfg.arrival_rate * run.horizon)))
        serials = np.array(sorted(range(birth.size), key=str), np.int64)
        shape = _class_shape(cfg)
        birth = np.zeros_like(birth) if shape is None else birth[serials]
        t, owner = _draw_contents(rng, shape, birth, cfg.volumes, run.horizon, run.daynight)
        owner += len(names)  # the contents of the classes drawn before
        times.append(t)
        owners.append(owner)
        births.append(birth)
        names += [f"c{cfg.class_id}_{s}" for s in serials.tolist()]
    t, owner = np.concatenate(times), np.concatenate(owners)
    del times, owners
    order = np.argsort(t, kind="stable")
    return t[order], owner[order], np.concatenate(births), names


def generate_snm(classes: Sequence[SnmClassConfig], horizon: float, seed: int,
                 daynight: bool = False) -> Trace:
    """Generate a full shot-noise trace.

    Per class: content births form a homogeneous Poisson process on
    [0, horizon]; each content draws its volume, then its request times
    from its shot (or uniformly, for stationary classes).  Requests past
    the horizon are censored.  Content ids are "c<class>_<serial>" with
    serials assigned in birth order.
    """
    t, owner, _, names = _draw_run(SnmConfig(horizon, classes, _require_int("seed", seed), daynight))
    return Trace(t, owner, names, horizon)


class SnmEventStream:
    """Streaming shot-noise generator: events in global timestamp order.

    It makes the draw of :func:`generate_snm` at the first ``next()``
    and yields its requests one event at a time.  ``peak_pending``
    is the most a heap fed each content's requests at its birth would
    hold, updated as the stream passes each birth (0 before the first
    event): after content k in birth order (stationary ones, at birth 0,
    first), the requests of the contents born through k minus those
    earlier than its birth.  All stationary requests are pending from
    the first event on.
    """

    def __init__(self, classes: Sequence[SnmClassConfig], horizon: float, seed: int, daynight=False):
        self.peak_pending = 0
        self._events = self._replay(SnmConfig(horizon, classes, _require_int("seed", seed), daynight))

    def _replay(self, run: SnmConfig) -> Iterator[RequestEvent]:
        t, owner, birth, names = _draw_run(run)
        order = np.argsort(birth, kind="stable")
        # the requests earlier than each birth in birth order, then all of them
        marks = np.searchsorted(t, np.append(birth[order], np.inf))
        held = np.cumsum(np.bincount(owner, minlength=order.size)[order])
        peaks = np.maximum.accumulate(np.append(0, held - marks[:-1])).tolist()
        sizes = np.diff(marks, prepend=0).tolist()
        events = map(tuple.__new__, repeat(RequestEvent), zip(t.tolist(), np.array(names, object)[owner]))
        del t, owner  # the events hold the requests from here on
        for peak, size in zip(peaks, sizes):
            self.peak_pending = peak
            yield from islice(events, size)

    def __iter__(self):
        return self

    def __next__(self) -> RequestEvent:
        return next(self._events)


# --- generation config file ------------------------------------------------
#
# Line-oriented text; '#' lines are comments.  Top-level fields:
#     horizon_days=<real>   seed=<integer>   daynight=<on|off>
# and one line per class:
#     class=<id>, arrival_rate=<real>, lifespan_days=<real>,
#     shape=<exponential|uniform|stationary>, volumes=<path|const:<real>>
# Volume sample paths are resolved relative to the config file.  A field may
# appear once (top-level fields once per file), class ids are unique, and the
# values follow the rules of SnmConfig and SnmClassConfig.


def _add_field(fields: dict[str, str], item: str) -> tuple[str, str]:
    # parse one key=value into fields, where each key may appear once
    if "=" not in item:
        raise ValueError(f"expected key=value, got {item!r}")
    key, _, value = item.partition("=")
    key, value = key.strip(), value.strip()
    if key in fields:
        raise ValueError(f"repeated field {key!r}")
    fields[key] = value
    return key, value


def _number(kind: type, key: str, text: str):
    # a config number of the given kind, int or float, with no range rule
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {noun}, got {text!r}") from None


def _load_volume_file(path: Path) -> tuple[float, ...]:
    with open(path, encoding="utf-8") as f:
        lines = [line.strip() for line in f]
    for lineno, line in enumerate(lines, start=1):
        if line and not line.isdecimal():
            raise ValueError(f"{path} line {lineno}: expected an integer >= 0, got {line!r}")
    return tuple(float(line) for line in lines if line)


def parse_snm_config(path: str | Path) -> SnmConfig:
    """Load a generation config, resolving volume files next to it.  The
    config classes check its values; every error names the path and line."""
    path = Path(path)
    horizon, seed, daynight = None, None, False
    classes: list[SnmClassConfig] = []
    top: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if line.startswith("class="):
                    fields: dict[str, str] = {}
                    for item in line.split(","):
                        _add_field(fields, item)
                    try:
                        class_id = _number(int, "class", fields.pop("class"))
                        arrival_rate = _number(float, "arrival_rate", fields.pop("arrival_rate"))
                        lifespan = _number(float, "lifespan_days", fields.pop("lifespan_days"))
                        shape = fields.pop("shape")
                        vol_spec = fields.pop("volumes")
                    except KeyError as exc:
                        raise ValueError(f"missing field {exc.args[0]}") from None
                    if fields:
                        raise ValueError(f"unknown field {next(iter(fields))!r}")
                    if any(cfg.class_id == class_id for cfg in classes):
                        raise ValueError(f"duplicate class id {class_id}")
                    if vol_spec.startswith("const:"):
                        volumes = _number(float, "volumes", vol_spec[len("const:"):])
                    else:
                        volumes = _load_volume_file(path.parent / vol_spec)
                    classes.append(SnmClassConfig(class_id, arrival_rate, lifespan, shape, volumes))
                else:
                    key, value = _add_field(top, line)
                    if key == "horizon_days":
                        horizon = _require(key, _number(float, key, value))  # SnmConfig's rule, to name the line
                    elif key == "seed":
                        seed = _number(int, key, value)
                    elif key == "daynight":
                        if value not in ("on", "off"):
                            raise ValueError(f"daynight must be on|off, got {value!r}")
                        daynight = value == "on"
                    else:
                        raise ValueError(f"unknown field {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    if horizon is None:
        raise ValueError(f"{path}: missing field horizon_days")
    try:
        return SnmConfig(horizon=horizon, classes=classes, seed=seed, daynight=daynight)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def snm_config_files(config: SnmConfig, path: str | Path) -> dict[Path, Callable[[IO[str]], object]]:
    """The files of a generation config, as {path: writer} for
    :func:`write_atomic`: empirical volume samples go to sidecar files
    "<class>.volumes" next to the config, which comes last."""
    path = Path(path)
    lines = [f"horizon_days={format_cell(config.horizon)}"]
    if config.seed is not None:
        lines.append(f"seed={config.seed}")
    lines.append(f"daynight={'on' if config.daynight else 'off'}")
    texts: dict[Path, str] = {}
    for cfg in config.classes:
        if isinstance(cfg.volumes, float):
            vol_spec = f"const:{cfg.volumes!r}"
        else:
            bad = next((v for v in cfg.volumes if not v.is_integer()), None)
            if bad is not None:
                raise ValueError(f"class {cfg.class_id}: volume sample {bad!r} is not an integer")
            vol_spec = f"{cfg.class_id}.volumes"
            texts[path.parent / vol_spec] = "".join(f"{int(v)}\n" for v in cfg.volumes)
        lines.append(f"class={cfg.class_id}, arrival_rate={format_cell(cfg.arrival_rate)}, "
                     f"lifespan_days={format_cell(cfg.lifespan)}, shape={cfg.shape_kind}, volumes={vol_spec}")
    texts[path] = "\n".join(lines) + "\n"
    return {p: lambda f, text=text: f.write(text) for p, text in texts.items()}
