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

Generation is deterministic given a seed: every draw comes from
``np.random.default_rng(key)`` for a key (seed, tag, ...).  A class's
content keys (seed, tag, class, serial) are hashed in one vectorized
pass of numpy's SeedSequence, and numpy seeds each key's PCG64 from its
precomputed state.  The batch generator
(:func:`generate_snm`) and the event stream (:class:`SnmEventStream`)
walk one content list and place request times with one array function,
the batch over whole classes, the stream per content in birth order
through one merge loop, so they produce identical traces.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from .trace import RequestEvent, Trace, format_cell, write_atomic

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
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy's SeedSequence hash constants (NEP 19)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# numpy draws no Poisson count of a larger mean ("lam value too large"):
# the configs bound every value that becomes one
_POISSON_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _pool_state(entropy: list[np.ndarray]) -> np.ndarray:
    # numpy's SeedSequence over rows of uint32 entropy words (one column
    # per word, uint32 arithmetic wraps as numpy's does): mix them into a
    # pool of 4 words, then generate_state(4, np.uint64) from the pool
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value *= np.uint32(hash_a)
        value ^= value >> 16
        return value

    def mix(x, y):
        out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        out ^= out >> 16
        return out

    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((entropy[0].size, 8), np.uint64)
    hash_b = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value *= np.uint32(hash_b)
        value ^= value >> 16
        state[:, i] = value
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)  # little-endian word pairs


def _seed_words(seed: int, key: Sequence[int], last) -> np.ndarray:
    """Rows of ``np.random.SeedSequence(k).generate_state(4, np.uint64)``
    for the keys k = [seed mod 2**64, *key, j], one per j of ``last``, all
    at once.

    Key words are ints >= 0, and each j is below 2**64.  As SeedSequence
    does, each becomes its 32-bit words, least significant first, so a j
    of 2**32 or more adds one word more than a smaller j.
    """
    head = []
    for word in (seed & _MASK64, *key):
        head.append(word & _MASK32)
        while word > _MASK32:
            word >>= 32
            head.append(word & _MASK32)
    last = np.asarray(last, np.uint64)
    lo, hi = (last & _MASK32).astype(np.uint32), (last >> 32).astype(np.uint32)
    rows = np.empty((last.size, 4), np.uint64)
    wide = hi > 0
    for part, tail in ((~wide, [lo]), (wide, [lo, hi])):
        if part.any():
            n = np.count_nonzero(part)
            rows[part] = _pool_state([np.full(n, w, np.uint32) for w in head] + [t[part] for t in tail])
    return rows


class _State:
    # numpy's ISeedSequence interface over one _seed_words row: PCG64 asks
    # for generate_state(4, np.uint64), which the row already is
    __slots__ = ("row",)

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype):
        return self.row


def _rngs(rows: np.ndarray) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(k)`` for the key k of each :func:`_seed_words` row."""
    # registered here, not at import, so that importing the package does not load numpy.random
    np.random.bit_generator.ISeedSequence.register(_State)
    return map(np.random.default_rng, map(_State, rows))


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
        if not 1 <= self.total_requests <= 2**31 - 1:  # reuse_distances' limit
            raise ValueError(f"total_requests must be in [1, 2**31 - 1], got {self.total_requests}")
        _require("horizon", self.horizon)


@dataclass(frozen=True)
class SnmClassConfig:
    """Generation parameters for one content class.

    ``volumes`` is either a constant mean request count (any 0-d real,
    held as a Python float) or a sequence of observed volumes to resample
    from.  Stationary classes ignore the life-span and place requests
    uniformly over the horizon with count Poisson(V_m), which is how
    classes without a usable life-span estimate are handled.

    Rules shared with the config file: the class id is an integer >= 0
    (a word of the content RNG keys); arrival rate, life-span (>= 0 if
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
        if self.class_id < 0:
            raise ValueError(f"{where}: class id must be >= 0")
        if self.shape_kind not in SHAPE_KINDS:
            raise ValueError(f"{where}: unknown shape {self.shape_kind!r}")
        _require(f"{where}: arrival_rate", self.arrival_rate)
        _require(f"{where}: lifespan_days", self.lifespan, positive=self.shape_kind != "stationary")
        if np.ndim(self.volumes) == 0:
            object.__setattr__(self, "volumes", float(self.volumes))
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


def _place(shape: PopularityShape | None, births, masses, owner: np.ndarray | None, u: np.ndarray,
           horizon: float, thin: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    # The request times of contents from their uniform draws, for every
    # generator.  Candidate i of ``u`` belongs to content owner[i], of birth
    # births[owner[i]] and shot mass masses[owner[i]] = F(horizon - birth);
    # owner None means one content, of scalar birth and mass.  Under
    # day/night ``thin`` holds one thinning draw per candidate.  Returns
    # the kept times, unsorted, and which candidates were kept (None
    # without day/night); ``u`` is overwritten.
    if shape is None:
        t = np.multiply(u, horizon, out=u)  # uniform over [0, horizon]
    else:
        b, m = (births, masses) if owner is None else (births[owner], masses[owner])
        t = shape.quantile(np.multiply(u, m, out=u))
        np.minimum(t, horizon - b, out=t)  # guard fp rounding at the window edge
        t += b
    if thin is None:
        return t, None
    keep = thin < 0.5 * daynight_factor(t)
    return t[keep], keep


def _draws(rng: np.random.Generator, mean: float, daynight: bool) -> tuple[np.ndarray, np.ndarray | None]:
    # One content's draws after its volume, for every generator: a Poisson
    # count n, n candidate uniforms, then under day/night n thinning uniforms.
    n = rng.poisson(mean)
    return rng.random(n), rng.random(n) if daynight else None


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
    mass = 1.0
    if shape is not None:
        if horizon < birth:
            raise ValueError(f"horizon {horizon!r} precedes birth {birth!r}")
        mass = float(shape.cdf(horizon - birth))
    u, thin = _draws(rng, (2.0 if daynight else 1.0) * volume * mass, daynight)
    t, _ = _place(shape, birth, mass, None, u, horizon, thin)
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
    rng = np.random.default_rng([seed & _MASK64, _TAG_IRM])
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


def _volume(volumes: float | tuple[float, ...], rng: np.random.Generator) -> float:
    # a content's mean volume: the class's constant, or one resampled observation
    if isinstance(volumes, float):
        return volumes
    return float(volumes[rng.integers(0, len(volumes))])


def _births(classes: Sequence[SnmClassConfig], horizon: float, seed: int) -> list[tuple]:
    # Every class of a run with its contents' births, for the batch generator
    # and the event stream alike: (class, shape, births), where content
    # serials index the sorted births.  A stationary content's birth is 0,
    # which its placement ignores.
    out = []
    for cfg in SnmConfig(horizon, list(classes)).classes:
        rng = np.random.default_rng([seed & _MASK64, _TAG_BIRTHS, cfg.class_id])
        births = np.sort(rng.uniform(0.0, horizon, rng.poisson(cfg.arrival_rate * horizon)))
        shape = _class_shape(cfg)
        out.append((cfg, shape, np.zeros_like(births) if shape is None else births))
    return out


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
    factor = 2.0 if daynight else 1.0
    times, owners, names = [], [], []
    # Contents are laid out in id-string order ("c1_10" before "c1_2"), so
    # a stable sort on time breaks ties by id string, as the event
    # stream's heap does.
    for cfg, shape, births in sorted(_births(classes, horizon, seed), key=lambda c: f"c{c[0].class_id}_"):
        serials = np.array(sorted(range(births.size), key=str), np.int64)
        births = births[serials]
        masses = np.ones_like(births) if shape is None else shape.cdf(horizon - births)
        counts = np.empty(births.size, np.int64)
        cands, thins = array("d"), array("d")  # every content's draws, appended in place
        rngs = _rngs(_seed_words(seed, [_TAG_CONTENT, cfg.class_id], serials))
        for k, (rng, mass) in enumerate(zip(rngs, masses.tolist())):
            u, thin = _draws(rng, factor * _volume(cfg.volumes, rng) * mass, daynight)
            counts[k] = u.size
            cands.frombytes(u.tobytes())
            if daynight:
                thins.frombytes(thin.tobytes())
        owner = np.repeat(np.arange(births.size, dtype=np.int32), counts)
        t, keep = _place(shape, births, masses, owner, np.frombuffer(cands), horizon,
                         np.frombuffer(thins) if daynight else None)
        # Each step below drops its inputs as soon as its output exists, so
        # that peak memory stays near one trace's columns.
        del cands, thins
        times.append(t)
        owners.append((owner if keep is None else owner[keep]) + len(names))
        names += [f"c{cfg.class_id}_{s}" for s in serials.tolist()]
    t, owner = np.concatenate(times), np.concatenate(owners)
    del times, owners
    order = np.argsort(t, kind="stable")
    t, owner = t[order], owner[order]
    del order
    return Trace(t, owner, names, horizon)


class SnmEventStream:
    """Streaming shot-noise generator: events in global timestamp order.

    One merge loop walks the content list of :func:`generate_snm` in
    birth order (stationary contents, listed at birth 0, first): it
    yields the pending events earlier than each birth, then pushes that
    content's requests onto a heap; each event costs a log of the
    pending count.  A shot content is drawn at its birth, but every
    stationary content's requests are pending from the first event on,
    and they dominate ``peak_pending`` when stationary requests are most
    of the trace, as with the reference classes.  The stream yields
    exactly the events of :func:`generate_snm` for the same arguments.
    """

    def __init__(self, classes: Sequence[SnmClassConfig], horizon: float, seed: int, daynight=False):
        self.horizon = horizon
        self.peak_pending = 0
        contents, rows = [], []
        for cfg, shape, births in _births(classes, horizon, seed):
            rows.append(_seed_words(seed, [_TAG_CONTENT, cfg.class_id], np.arange(births.size)))
            contents += [(birth, cfg.class_id, serial, cfg, shape) for serial, birth in enumerate(births.tolist())]
        # (birth, class id, serial) is unique, so the sort never compares classes
        order = sorted(range(len(contents)), key=contents.__getitem__)
        self._events = self._merge([contents[k] for k in order], np.concatenate(rows)[order], daynight)

    def _merge(self, contents: list[tuple], rows: np.ndarray, daynight: bool):
        heap: list[RequestEvent] = []
        for (birth, class_id, serial, cfg, shape), rng in zip(contents, _rngs(rows)):
            while heap and heap[0].timestamp < birth:
                yield heapq.heappop(heap)
            cid = f"c{class_id}_{serial}"
            volume = _volume(cfg.volumes, rng)
            for t in shot_requests(shape, birth, volume, self.horizon, rng, daynight).tolist():
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
    lines = [f"horizon_days={format_cell(config.horizon)}"]
    if config.seed is not None:
        lines.append(f"seed={config.seed}")
    lines.append(f"daynight={'on' if config.daynight else 'off'}")
    texts: dict[Path, str] = {}
    for cfg in config.classes:
        if isinstance(cfg.volumes, float):
            vol_spec = f"const:{cfg.volumes!r}"
        else:
            bad = next((v for v in cfg.volumes if not float(v).is_integer()), None)
            if bad is not None:
                raise ValueError(f"class {cfg.class_id}: volume sample {bad!r} is not an integer")
            vol_spec = f"{cfg.class_id}.volumes"
            texts[path.parent / vol_spec] = "".join(f"{int(v)}\n" for v in cfg.volumes)
        lines.append(
            f"class={cfg.class_id}, arrival_rate={format_cell(cfg.arrival_rate)}, "
            f"lifespan_days={format_cell(cfg.lifespan)}, shape={cfg.shape_kind}, volumes={vol_spec}"
        )
    texts[path] = "\n".join(lines) + "\n"
    return {p: lambda f, text=text: f.write(text) for p, text in texts.items()}


def write_snm_config(config: SnmConfig, path: str | Path) -> None:
    """Write a generation config and its volume sidecars atomically."""
    write_atomic(snm_config_files(config, path))
