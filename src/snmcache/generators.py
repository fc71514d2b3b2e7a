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
the bound f <= 2.  :func:`shot_requests` is the one per-content
sampler, for shots, stationary contents and thinning alike.

Generation is deterministic given a seed: every content draws from an
RNG keyed by (seed, class, serial).  The batch generator
(:func:`generate_snm`) and the event stream (:class:`SnmEventStream`)
walk one content list, the stream in birth order through one merge
loop, so they produce identical traces.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Sequence

import numpy as np

from .trace import RequestEvent, Trace, write_atomic

__all__ = [
    "PopularityShape",
    "IrmConfig",
    "SnmClassConfig",
    "SnmConfig",
    "SnmEventStream",
    "SHAPE_KINDS",
    "daynight_factor",
    "lifespan_to_L",
    "shot_requests",
    "generate_irm",
    "generate_snm",
    "zipf_probabilities",
    "parse_snm_config",
    "snm_config_files",
    "write_snm_config",
]

SHAPE_KINDS = ("exponential", "uniform", "stationary")

# RNG stream tags: every random draw comes from a generator keyed by
# (seed, tag, ...), which is the package's reproducibility contract.
_TAG_IRM = 0x12
_TAG_BIRTHS = 0xB1
_TAG_CONTENT = 0xC0
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy draws no Poisson count of a larger mean ("lam value too large"):
# the configs bound every value that becomes one
_POISSON_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed & _MASK64, *key])


def _require(key: str, value, positive: bool = True) -> None:
    # the configs' one value rule, over a number or (in one pass) a sequence
    values = np.asarray(value, dtype=float)
    bad = ~np.isfinite(values) | ((values <= 0) if positive else (values < 0))
    if bad.any():
        rule = "positive" if positive else ">= 0"
        raise ValueError(f"{key} must be {rule} and finite, got {values[bad].flat[0]}")


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
            vals = np.exp(-np.maximum(t, 0.0) / self.L) / self.L
            return np.where(t < 0, 0.0, vals)
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
        if self.catalogue_size < 1:
            raise ValueError(f"catalogue_size must be >= 1, got {self.catalogue_size}")
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.total_requests < 1:
            raise ValueError(f"total_requests must be >= 1, got {self.total_requests}")
        _require("horizon", self.horizon)


@dataclass(frozen=True)
class SnmClassConfig:
    """Generation parameters for one content class.

    ``volumes`` is either a constant mean request count or a sequence of
    observed volumes to resample from.  Stationary classes ignore the
    life-span and place requests uniformly over the horizon with count
    Poisson(V_m), which is how classes without a usable life-span
    estimate are handled.

    Rules shared with the config file: arrival rate, life-span (>= 0 if
    stationary) and a constant volume are finite and positive; volume
    samples are one or more finite values >= 0; twice the largest volume
    (a content's day/night candidate mean) is within numpy's Poisson limit.
    """

    class_id: int
    arrival_rate: float  # contents per day
    lifespan: float  # target effective life-span, days
    shape_kind: str  # one of SHAPE_KINDS
    volumes: float | tuple[float, ...]

    def __post_init__(self):
        where = f"class {self.class_id}"
        if self.shape_kind not in SHAPE_KINDS:
            raise ValueError(f"{where}: unknown shape {self.shape_kind!r}")
        _require(f"{where}: arrival_rate", self.arrival_rate)
        _require(f"{where}: lifespan_days", self.lifespan, positive=self.shape_kind != "stationary")
        if isinstance(self.volumes, (int, float)):
            _require(f"{where}: volumes", self.volumes)
        elif len(self.volumes) == 0:
            raise ValueError(f"{where}: empty volume sample list")
        else:
            _require(f"{where}: volumes sample", self.volumes, positive=False)
        _require_poisson(f"{where}: 2 * volumes", 2 * float(np.max(self.volumes)))


@dataclass
class SnmConfig:
    """A full generation run: horizon (finite and positive), seed,
    modulation flag and one or more classes with unique ids, each with
    expected births (arrival rate * horizon) within numpy's Poisson limit."""

    horizon: float
    classes: list[SnmClassConfig]
    seed: int | None = None
    daynight: bool = False

    def __post_init__(self):
        _require("horizon", self.horizon)
        if not self.classes:
            raise ValueError("class list must be non-empty")
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


def shot_requests(
    shape: PopularityShape | None, birth: float, volume: float, horizon: float,
    rng: np.random.Generator, daynight: bool,
) -> np.ndarray:
    """Sorted absolute request times of one content, truncated at the horizon.

    Order-statistics construction of the inhomogeneous Poisson process
    with rate ``volume * shape(t - birth)``: the count is
    Poisson(volume * F(horizon - birth)) and the times are i.i.d. draws
    from the shape truncated to [birth, horizon].  With ``shape`` None
    the count is Poisson(volume) and the times are uniform over
    [0, horizon] (a stationary content).  Under day/night modulation the
    candidates are drawn at the dominating rate ``2 * volume * shape``
    and each, at absolute time t, is kept with probability f(t)/2, so
    the expected kept volume is volume * integral(shape * f): close to,
    but not exactly, ``volume``.
    """
    factor = 2.0 if daynight else 1.0
    if shape is None:
        t = rng.uniform(0.0, horizon, rng.poisson(factor * volume))
    else:
        if horizon < birth:
            raise ValueError(f"horizon {horizon!r} precedes birth {birth!r}")
        window = horizon - birth
        mass = float(shape.cdf(window))
        t = shape.quantile(rng.random(rng.poisson(factor * volume * mass)) * mass)
        np.minimum(t, window, out=t)  # guard fp rounding at the window edge
        t += birth
    if daynight:
        t = t[rng.random(t.size) < 0.5 * daynight_factor(t)]
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
    rng = _rng(seed, _TAG_IRM)
    cum = np.cumsum(zipf_probabilities(config.catalogue_size, config.alpha))
    cum[-1] = 1.0
    ranks = np.searchsorted(cum, rng.random(config.total_requests), side="right") + 1
    times = np.sort(rng.uniform(0.0, config.horizon, config.total_requests))
    used, codes = np.unique(ranks, return_inverse=True)
    return Trace(times, codes, [f"r{n}" for n in used.tolist()], config.horizon)


def _class_shape(cfg: SnmClassConfig) -> PopularityShape | None:
    if cfg.shape_kind == "stationary":
        return None
    return PopularityShape(cfg.shape_kind, lifespan_to_L(cfg.shape_kind, cfg.lifespan))


def _content_times(cfg: SnmClassConfig, shape, birth: float, horizon: float, rng, daynight: bool):
    # sorted request times of one content, for the batch generator and the event stream alike
    v = cfg.volumes
    volume = float(v) if isinstance(v, (int, float)) else float(v[rng.integers(0, len(v))])
    return shot_requests(shape, birth, volume, horizon, rng, daynight)


def _contents(classes: Sequence[SnmClassConfig], horizon: float, seed: int) -> list[tuple]:
    # Every content of a run, for the batch generator and the event stream
    # alike: (birth, class id, serial, class, shape), serials in birth order.
    # A stationary content is listed at birth 0, which shot_requests ignores.
    contents = []
    for cfg in SnmConfig(horizon, list(classes)).classes:
        rng = _rng(seed, _TAG_BIRTHS, cfg.class_id)
        births = np.sort(rng.uniform(0.0, horizon, rng.poisson(cfg.arrival_rate * horizon)))
        shape = _class_shape(cfg)
        contents += [(0.0 if shape is None else birth, cfg.class_id, serial, cfg, shape)
                     for serial, birth in enumerate(births.tolist())]
    return contents


def generate_snm(
    classes: Sequence[SnmClassConfig], horizon: float, seed: int, daynight: bool = False
) -> Trace:
    """Generate a full shot-noise trace.

    Per class: content births form a homogeneous Poisson process on
    [0, horizon]; each content draws its volume, then its request times
    from its shot (or uniformly, for stationary classes).  Requests past
    the horizon are censored.  Content ids are "c<class>_<serial>" with
    serials assigned in birth order.
    """
    times, names = [], []
    for birth, class_id, serial, cfg, shape in _contents(classes, horizon, seed):
        rng = _rng(seed, _TAG_CONTENT, class_id, serial)
        times.append(_content_times(cfg, shape, birth, horizon, rng, daynight))
        names.append(f"c{class_id}_{serial}")
    # Laid out in id-string order, a stable sort on time breaks ties by
    # id string ("c1_10" before "c1_2"), as the event stream's heap does.
    by_name = sorted(range(len(names)), key=names.__getitem__)
    owner = np.repeat(np.array(by_name, np.int64), [times[k].size for k in by_name])
    t = np.concatenate([np.empty(0), *(times[k] for k in by_name)])
    order = np.argsort(t, kind="stable")
    return Trace(t[order], owner[order], names, horizon)


class SnmEventStream:
    """Streaming shot-noise generator: events in global timestamp order.

    One merge loop walks the content list of :func:`generate_snm` in
    birth order (stationary contents, listed at birth 0, first): it
    yields the pending events earlier than each birth, then pushes that
    content's requests onto a heap, so contents are materialized lazily
    and each event costs a log of the pending count.  The stream yields
    exactly the events of :func:`generate_snm` for the same arguments.
    """

    def __init__(self, classes: Sequence[SnmClassConfig], horizon: float, seed: int, daynight=False):
        self.horizon = horizon
        self.peak_pending = 0
        # (birth, class id, serial) is unique, so the sort never compares classes
        self._events = self._merge(sorted(_contents(classes, horizon, seed)), seed, daynight)

    def _merge(self, contents: list[tuple], seed: int, daynight: bool):
        heap: list[RequestEvent] = []
        for birth, class_id, serial, cfg, shape in contents:
            while heap and heap[0].timestamp < birth:
                yield heapq.heappop(heap)
            cid = f"c{class_id}_{serial}"
            rng = _rng(seed, _TAG_CONTENT, class_id, serial)
            for t in _content_times(cfg, shape, birth, self.horizon, rng, daynight).tolist():
                heapq.heappush(heap, RequestEvent(t, cid))
            self.peak_pending = max(self.peak_pending, len(heap))
        while heap:
            yield heapq.heappop(heap)

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
# Volume sample paths are resolved relative to the config file.  A field
# may appear once (top-level fields once per file) and class ids are unique.
# The values follow the rules of SnmConfig and SnmClassConfig.


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
    values = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if not line.isdecimal():
                raise ValueError(f"{path} line {lineno}: expected an integer >= 0, got {line!r}")
            values.append(float(line))
    return tuple(values)


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
                        horizon = _number(float, key, value)
                        _require(key, horizon)  # SnmConfig's rule, applied here to name the line
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
    lines = [f"horizon_days={config.horizon!r}"]
    if config.seed is not None:
        lines.append(f"seed={config.seed}")
    lines.append(f"daynight={'on' if config.daynight else 'off'}")
    texts: dict[Path, str] = {}
    for cfg in config.classes:
        if isinstance(cfg.volumes, (int, float)):
            vol_spec = f"const:{float(cfg.volumes)!r}"
        else:
            bad = next((v for v in cfg.volumes if not float(v).is_integer()), None)
            if bad is not None:
                raise ValueError(f"class {cfg.class_id}: volume sample {bad!r} is not an integer")
            vol_spec = f"{cfg.class_id}.volumes"
            texts[path.parent / vol_spec] = "".join(f"{int(v)}\n" for v in cfg.volumes)
        lines.append(
            f"class={cfg.class_id}, arrival_rate={cfg.arrival_rate!r}, "
            f"lifespan_days={cfg.lifespan!r}, shape={cfg.shape_kind}, volumes={vol_spec}"
        )
    texts[path] = "\n".join(lines) + "\n"
    return {p: lambda f, text=text: f.write(text) for p, text in texts.items()}


def write_snm_config(config: SnmConfig, path: str | Path) -> None:
    """Write a generation config and its volume sidecars atomically."""
    write_atomic(snm_config_files(config, path))
