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

Generation is deterministic given a seed: every content draws from an
RNG keyed by (seed, class, serial), so the batch generator and the
streaming event scheduler produce identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .trace import RequestEvent, Trace

__all__ = [
    "PopularityShape",
    "ContentShot",
    "IrmConfig",
    "SnmClassConfig",
    "SnmConfig",
    "SnmEventStream",
    "SHAPE_KINDS",
    "daynight_factor",
    "lifespan_to_L",
    "sample_shot_requests",
    "modulated_shot_requests",
    "generate_irm",
    "generate_snm",
    "generate_snm_from_config",
    "zipf_probabilities",
    "parse_snm_config",
    "write_snm_config",
]

SHAPE_KINDS = ("exponential", "uniform", "stationary")

# RNG stream tags: every random draw comes from a generator keyed by
# (seed, tag, ...), which is the package's reproducibility contract.
_TAG_IRM = 0x12
_TAG_BIRTHS = 0xB1
_TAG_CONTENT = 0xC0
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed & _MASK64, *key])


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
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L!r}")

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
class ContentShot:
    """One content's request process: rate mean_volume * shape(t - birth)."""

    content_id: str
    birth: float  # days
    mean_volume: float
    shape: PopularityShape


@dataclass(frozen=True)
class IrmConfig:
    catalogue_size: int
    alpha: float
    total_requests: int
    horizon: float  # days

    def __post_init__(self):
        if self.catalogue_size < 1:
            raise ValueError(f"catalogue_size must be >= 1, got {self.catalogue_size}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.total_requests < 1:
            raise ValueError(f"total_requests must be >= 1, got {self.total_requests}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


@dataclass(frozen=True)
class SnmClassConfig:
    """Generation parameters for one content class.

    ``volumes`` is either a constant mean request count or a sequence of
    observed volumes to resample from.  Stationary classes ignore the
    life-span and place requests uniformly over the horizon with count
    Poisson(V_m), which is how classes without a usable life-span
    estimate are handled.
    """

    class_id: int
    arrival_rate: float  # contents per day
    lifespan: float  # target effective life-span, days
    shape_kind: str  # one of SHAPE_KINDS
    volumes: float | tuple[float, ...]

    def __post_init__(self):
        if self.shape_kind not in SHAPE_KINDS:
            raise ValueError(f"class {self.class_id}: unknown shape {self.shape_kind!r}")
        if not self.arrival_rate > 0:
            raise ValueError(f"class {self.class_id}: arrival_rate must be positive")
        if self.shape_kind != "stationary" and not self.lifespan > 0:
            raise ValueError(f"class {self.class_id}: lifespan must be positive")
        if isinstance(self.volumes, (int, float)):
            if not self.volumes > 0:
                raise ValueError(f"class {self.class_id}: constant volume must be positive")
        elif len(self.volumes) == 0:
            raise ValueError(f"class {self.class_id}: empty volume sample list")


@dataclass
class SnmConfig:
    """A full generation run: horizon, seed, modulation flag, classes."""

    horizon: float
    classes: list[SnmClassConfig]
    seed: int | None = None
    daynight: bool = False


def daynight_factor(t):
    """Daily rate modulation f(t) = 1 + sin(2*pi*t), t in days."""
    return 1.0 + np.sin(2.0 * np.pi * np.asarray(t, dtype=float))


def lifespan_to_L(kind: str, lifespan: float) -> float:
    """Shape scale L that yields the target 0.1-to-0.9 quantile span.

    The effective life-span of a profile is the time between its 0.1 and
    0.9 quantiles: 1.6*L for the uniform shape (so L = 0.5*lifespan/0.8)
    and L*ln(9) for the exponential.
    """
    if not lifespan > 0:
        raise ValueError(f"lifespan must be positive, got {lifespan!r}")
    if kind == "uniform":
        return lifespan / 1.6
    if kind == "exponential":
        return lifespan / math.log(9.0)
    raise ValueError(f"shape kind {kind!r} has no life-span scale")


def _shot_times(shape, birth: float, volume: float, horizon: float, rng, daynight: bool) -> np.ndarray:
    # The one sampling path: Poisson count, i.i.d. times from the shape
    # truncated to [birth, horizon] (uniform over [0, horizon] when shape
    # is None), then, under day/night modulation, thinning at twice the
    # rate that keeps each candidate with probability f(t)/2.
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


def sample_shot_requests(shot: ContentShot, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Request times of one shot, truncated at the horizon.

    Order-statistics construction of the inhomogeneous Poisson process:
    the count is Poisson(mean_volume * F(horizon - birth)) and the times
    are i.i.d. draws from the shape truncated to the observation window,
    shifted by the birth time.  Returns a sorted array of absolute times.
    """
    return _shot_times(shot.shape, shot.birth, shot.mean_volume, horizon, rng, False)


def modulated_shot_requests(shot: ContentShot, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Shot request times under day/night modulation.

    Thinning against the dominating rate 2 * mean_volume * shape: each
    candidate at absolute time t is kept with probability f(t)/2.  The
    expected kept volume is mean_volume * integral(shape * f), which is
    close to, but not exactly, mean_volume.
    """
    return _shot_times(shot.shape, shot.birth, shot.mean_volume, horizon, rng, True)


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
    return Trace.from_codes(times, codes, [f"r{n}" for n in used.tolist()], config.horizon)


def _class_shape(cfg: SnmClassConfig) -> PopularityShape | None:
    if cfg.shape_kind == "stationary":
        return None
    return PopularityShape(cfg.shape_kind, lifespan_to_L(cfg.shape_kind, cfg.lifespan))


def _content_times(cfg: SnmClassConfig, shape, birth: float, horizon: float, rng, daynight: bool):
    # sorted request times of one content, for the batch generator and the event stream alike
    v = cfg.volumes
    volume = float(v) if isinstance(v, (int, float)) else float(v[rng.integers(0, len(v))])
    return _shot_times(shape, birth, volume, horizon, rng, daynight)


def _class_births(cfg: SnmClassConfig, horizon: float, seed: int) -> np.ndarray:
    rng = _rng(seed, _TAG_BIRTHS, cfg.class_id)
    n = rng.poisson(cfg.arrival_rate * horizon)
    return np.sort(rng.uniform(0.0, horizon, n))


def _check_run(classes: Sequence[SnmClassConfig], horizon: float) -> None:
    # preconditions shared by the batch generator and the event stream
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if not classes:
        raise ValueError("class list must be non-empty")
    seen = set()
    for cfg in classes:
        if cfg.class_id in seen:
            raise ValueError(f"duplicate class id {cfg.class_id}")
        seen.add(cfg.class_id)


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
    _check_run(classes, horizon)
    times, names = [], []
    for cfg in classes:
        shape = _class_shape(cfg)
        for serial, birth in enumerate(_class_births(cfg, horizon, seed).tolist()):
            rng = _rng(seed, _TAG_CONTENT, cfg.class_id, serial)
            times.append(_content_times(cfg, shape, birth, horizon, rng, daynight))
            names.append(f"c{cfg.class_id}_{serial}")
    # Laid out in id-string order, a stable sort on time breaks ties by
    # id string ("c1_10" before "c1_2"), as the event stream's heap does.
    by_name = sorted(range(len(names)), key=names.__getitem__)
    owner = np.repeat(np.array(by_name, np.int64), [times[k].size for k in by_name])
    t = np.concatenate([np.empty(0), *(times[k] for k in by_name)])
    order = np.argsort(t, kind="stable")
    return Trace.from_codes(t[order], owner[order], names, horizon)


def generate_snm_from_config(config: SnmConfig) -> Trace:
    if config.seed is None:
        raise ValueError("config has no seed")
    return generate_snm(config.classes, config.horizon, config.seed, config.daynight)


class SnmEventStream:
    """Streaming shot-noise generator: events in global timestamp order.

    Contents are materialized lazily as the stream crosses their birth
    times; a content's future requests go into a heap of pending events,
    so the per-event cost is logarithmic in the number of pending
    requests.  Stationary contents have no causal birth and are
    scheduled up front.  For a given (classes, horizon, seed, daynight)
    the stream yields exactly the events of :func:`generate_snm`.
    """

    def __init__(self, classes: Sequence[SnmClassConfig], horizon: float, seed: int, daynight=False):
        _check_run(classes, horizon)
        import heapq  # only the stream needs a heap; the package import does without
        self._heapq = heapq
        self.horizon = horizon
        self.peak_pending = 0
        self._heap: list[tuple[float, str, int]] = []
        self._pending_births: list[tuple[float, int, SnmClassConfig, PopularityShape, int]] = []
        self._seed = seed
        self._daynight = daynight
        self._next_birth = 0

        for cfg in classes:
            shape = _class_shape(cfg)
            births = _class_births(cfg, horizon, seed)
            if shape is None:
                for serial, birth in enumerate(births):
                    self._materialize(cfg, None, serial, float(birth))
            else:
                self._pending_births.extend(
                    (float(birth), cfg.class_id, cfg, shape, serial)
                    for serial, birth in enumerate(births)
                )
        self._pending_births.sort(key=lambda b: (b[0], b[1], b[4]))

    def _materialize(self, cfg, shape, serial: int, birth: float) -> None:
        cid = f"c{cfg.class_id}_{serial}"
        rng = _rng(self._seed, _TAG_CONTENT, cfg.class_id, serial)
        times = _content_times(cfg, shape, birth, self.horizon, rng, self._daynight)
        for seq, t in enumerate(times):
            self._heapq.heappush(self._heap, (float(t), cid, seq))
        if len(self._heap) > self.peak_pending:
            self.peak_pending = len(self._heap)

    def __iter__(self):
        return self

    def __next__(self) -> RequestEvent:
        births = self._pending_births
        while self._next_birth < len(births) and (
            not self._heap or births[self._next_birth][0] <= self._heap[0][0]
        ):
            birth, _, cfg, shape, serial = births[self._next_birth]
            self._next_birth += 1
            self._materialize(cfg, shape, serial, birth)
        if self._heap:
            t, cid, _ = self._heapq.heappop(self._heap)
            return RequestEvent(t, cid)
        raise StopIteration

    def next_event(self) -> RequestEvent | None:
        """Next event in timestamp order, or None at end of stream."""
        try:
            return next(self)
        except StopIteration:
            return None


# --- generation config file ------------------------------------------------
#
# Line-oriented text; '#' lines are comments.  Top-level fields:
#     horizon_days=<real>   seed=<integer>   daynight=<on|off>
# and one line per class:
#     class=<id>, arrival_rate=<real>, lifespan_days=<real>,
#     shape=<exponential|uniform|stationary>, volumes=<path|const:<real>>
# Volume sample paths are resolved relative to the config file.


def _parse_kv(item: str, lineno: int):
    if "=" not in item:
        raise ValueError(f"config line {lineno}: expected key=value, got {item!r}")
    key, _, value = item.partition("=")
    return key.strip(), value.strip()


def _load_volume_file(path: Path) -> tuple[float, ...]:
    values = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(float(int(line)))
            except ValueError:
                raise ValueError(f"{path} line {lineno}: expected an integer, got {line!r}") from None
    if not values:
        raise ValueError(f"{path}: empty volume file")
    return tuple(values)


def parse_snm_config(path: str | Path) -> SnmConfig:
    """Load a generation config, resolving volume files next to it."""
    path = Path(path)
    horizon = None
    seed = None
    daynight = False
    classes: list[SnmClassConfig] = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("class="):
                fields = dict(_parse_kv(item, lineno) for item in line.split(","))
                try:
                    class_id = int(fields.pop("class"))
                    arrival_rate = float(fields.pop("arrival_rate"))
                    lifespan = float(fields.pop("lifespan_days"))
                    shape = fields.pop("shape")
                    vol_spec = fields.pop("volumes")
                except KeyError as exc:
                    raise ValueError(f"config line {lineno}: missing field {exc.args[0]}") from None
                if fields:
                    raise ValueError(f"config line {lineno}: unknown field {next(iter(fields))!r}")
                if vol_spec.startswith("const:"):
                    volumes: float | tuple[float, ...] = float(vol_spec[len("const:"):])
                else:
                    volumes = _load_volume_file(path.parent / vol_spec)
                classes.append(SnmClassConfig(class_id, arrival_rate, lifespan, shape, volumes))
            else:
                key, value = _parse_kv(line, lineno)
                if key == "horizon_days":
                    horizon = float(value)
                elif key == "seed":
                    seed = int(value)
                elif key == "daynight":
                    if value not in ("on", "off"):
                        raise ValueError(f"config line {lineno}: daynight must be on|off, got {value!r}")
                    daynight = value == "on"
                else:
                    raise ValueError(f"config line {lineno}: unknown field {key!r}")
    if horizon is None:
        raise ValueError(f"{path}: missing field horizon_days")
    if not classes:
        raise ValueError(f"{path}: no class lines")
    return SnmConfig(horizon=horizon, classes=classes, seed=seed, daynight=daynight)


def write_snm_config(config: SnmConfig, path: str | Path) -> None:
    """Write a generation config; empirical volume samples go to sidecar
    files "<class>.volumes" next to the config."""
    path = Path(path)
    lines = [f"horizon_days={config.horizon!r}"]
    if config.seed is not None:
        lines.append(f"seed={config.seed}")
    lines.append(f"daynight={'on' if config.daynight else 'off'}")
    sidecars: dict[str, str] = {}
    for cfg in config.classes:
        if isinstance(cfg.volumes, (int, float)):
            vol_spec = f"const:{float(cfg.volumes)!r}"
        else:
            bad = next((v for v in cfg.volumes if not float(v).is_integer()), None)
            if bad is not None:
                raise ValueError(f"class {cfg.class_id}: volume sample {bad!r} is not an integer")
            vol_spec = f"{cfg.class_id}.volumes"
            sidecars[vol_spec] = "".join(f"{int(v)}\n" for v in cfg.volumes)
        lines.append(
            f"class={cfg.class_id}, arrival_rate={cfg.arrival_rate!r}, "
            f"lifespan_days={cfg.lifespan!r}, shape={cfg.shape_kind}, volumes={vol_spec}"
        )
    for name, text in sidecars.items():
        (path.parent / name).write_text(text, encoding="utf-8")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
