"""Identification embeddings, per-scale memory, and gated propagation.

The propagation core transfers mask identity from memory frames to the
current frame.  Each tracked object (plus background, row 0) owns a fixed
embedding row in an IdBank.  A mask is encoded into a per-cell ID map by
majority vote inside each stride cell.  Each stride keeps a long-term
tuple of per-frame entries, anchored on the reference frame, their merge
into one entry, and a short-term entry for the last stored frame.
`MemoryBank.write` is the only code that extends long-term memory; it
merges each new long-term entry into the merged one there, so no read
merges anything.  Each gated propagation layer of a stage reads
long-term then short-term memory through shared softmax attention computed
from visual features only, and applies the read to both branches through a
sigmoid-gated residual:

    att     = softmax(query . keys^T / (temperature * sqrt(C)))
    out     = in + sigmoid(bias) * (att . values)

with values = memory keys on the visual branch and memory id_values on the
ID branch.  Both branches come from one product, att . [keys | id_values].
Each of the four reads has its own scalar gate bias; bias 0 (the default) is
a uniform half-open gate.

Memory entries hold their keys (transposed) and values in float64 as well,
built once per entry, so a read converts only the query and the attention
map.  A read takes at most `ATTENTION_CHUNK_ROWS` query rows at a time,
which bounds its float64 temporaries on large frames.  A read of at least
`PARALLEL_READ_CELLS` query rows x memory rows made on the main thread is
also split into one contiguous row range per thread of
`kernels.resolve_threads(0)`: the main thread reads the first range and one
module executor of at most 7 helper threads, started by the first such
read, reads the others.  NumPy releases the GIL in BLAS and in its ufunc loops, so the
ranges run side by side.  Reads on any other thread, such as the evaluation
pool's, which already fills the CPUs, are not split, so no two split reads
share the helpers; `MSTRACK_THREADS=1` splits nothing.  Every
chunk is the same `softmax(matmul(...))` and `matmul` over its rows, so the
bytes depend neither on the chunking nor on the thread count
(tests/test_propagation.py compares both with one composed read).

Operation counts and tensor shapes never depend on the number of tracked
objects; `probe_operations` records (name, shape) signatures so tests can
assert that.
"""

from __future__ import annotations

import contextlib
import copy
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LabelError, ShapeError, StateError
from .kernels import matmul, resolve_threads, softmax

MAX_BANK_RESEEDS = 100
MAX_PAIRWISE_DOT = 0.9
DEFAULT_TEMPERATURE = 0.1
# query rows per attention chunk: a 128 px frame has 256 stride-8 cells, so
# its reads take one chunk
ATTENTION_CHUNK_ROWS = 512
# query rows x memory rows from which a read is split across threads; below
# it, handing rows to a helper thread costs more than it saves
PARALLEL_READ_CELLS = 1 << 17


# --------------------------------------------------------------------------
# identification bank


@dataclass(frozen=True)
class IdBank:
    max_objects: int
    id_dim: int
    embeddings: np.ndarray  # [(M+1), D], row 0 = background
    seed: int


def _orthonormal_rows(a: np.ndarray) -> np.ndarray | None:
    """Modified Gram-Schmidt over rows; None if a row degenerates."""
    out = a.astype(np.float64).copy()
    n = out.shape[0]
    for i in range(n):
        for j in range(i):
            out[i] -= np.dot(out[j], out[i]) * out[j]
        norm = np.linalg.norm(out[i])
        if norm < 1e-9:
            return None
        out[i] /= norm
    return out


def make_id_bank(max_objects: int, id_dim: int, seed: int) -> IdBank:
    """Build the (M+1)-row identification bank from a seeded Gaussian.

    Rows are unit-norm.  When id_dim allows (D >= M+1) the rows are made
    mutually orthogonal, which keeps the label readout free of cross-talk;
    otherwise plain normalization is used and the seed is incremented until
    all pairwise |dot| < 0.9 (configuration error after 100 attempts).
    """
    if max_objects < 1:
        raise ConfigError(f"max_objects must be >= 1, got {max_objects}")
    if id_dim < 2:
        raise ConfigError(f"id_dim must be >= 2, got {id_dim}")
    rows = max_objects + 1
    for attempt in range(MAX_BANK_RESEEDS):
        rng = np.random.default_rng(seed + attempt)
        raw = rng.standard_normal((rows, id_dim))
        if id_dim >= rows:
            emb = _orthonormal_rows(raw)
            if emb is None:
                continue
        else:
            norms = np.linalg.norm(raw, axis=1, keepdims=True)
            if norms.min() < 1e-9:
                continue
            emb = raw / norms
        dots = emb @ emb.T
        off = np.abs(dots - np.eye(rows))
        if off.max() < MAX_PAIRWISE_DOT:
            e = np.ascontiguousarray(emb, dtype=np.float32)
            e.setflags(write=False)
            return IdBank(max_objects=max_objects, id_dim=id_dim, embeddings=e, seed=seed)
    raise ConfigError(
        f"could not build an id bank with max pairwise dot < {MAX_PAIRWISE_DOT} "
        f"for M={max_objects}, D={id_dim} after {MAX_BANK_RESEEDS} seeds"
    )


def permuted_bank(bank: IdBank, perm: dict[int, int]) -> IdBank:
    """Bank with rows moved so new row perm[k] equals old row k (row 0 fixed)."""
    emb = bank.embeddings.copy()
    for src, dst in perm.items():
        emb[dst] = bank.embeddings[src]
    emb.setflags(write=False)
    return IdBank(bank.max_objects, bank.id_dim, emb, bank.seed)


# --------------------------------------------------------------------------
# memory


@dataclass(frozen=True)
class MemoryEntry:
    """Memory rows of one frame, or of several merged.

    `keys` and `id_values` become float32 views into one [N, C+D] array, so
    the rows are held once in float32.  Attention reads use `keys_t`
    [C, N] and `values` [N, C+D], float64 copies built once per entry, so
    `matmul` takes them without converting memory on every read.
    """

    scale: int  # stride, 16 or 8
    keys: np.ndarray  # [N, C] flattened spatial cells
    id_values: np.ndarray  # [N, D]
    frame_index: int
    keys_t: np.ndarray = field(init=False, repr=False, compare=False)  # [C, N] float64
    values: np.ndarray = field(init=False, repr=False, compare=False)  # [N, C+D] float64

    def __post_init__(self):
        if self.keys.ndim != 2 or self.id_values.ndim != 2:
            raise ShapeError("memory keys and id_values must be 2-d row matrices")
        if self.keys.shape[0] != self.id_values.shape[0]:
            raise ShapeError(
                f"memory row mismatch: {self.keys.shape[0]} keys vs "
                f"{self.id_values.shape[0]} id rows"
            )
        c = self.keys.shape[1]
        rows = np.concatenate(
            [np.asarray(self.keys, np.float32), np.asarray(self.id_values, np.float32)], axis=1
        )
        values = rows.astype(np.float64)
        object.__setattr__(self, "keys", rows[:, :c])
        object.__setattr__(self, "id_values", rows[:, c:])
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "keys_t", np.ascontiguousarray(values[:, :c].T))


@dataclass(frozen=True)
class ScaleMemory:
    """Per-stride memory: reference-anchored long term plus previous frame.

    `long_term` is the tuple of per-frame entries and `merged` their merge,
    None while `long_term` is empty.  A given list becomes a tuple, merged
    once.  The memory is frozen: `MemoryBank.write` replaces it with one
    that holds the new entry, so `merged` cannot fall out of step with
    `long_term`, and a read never sees a memory half written.
    """

    long_term: tuple = ()
    short_term: MemoryEntry | None = None
    merged: MemoryEntry | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        long_term = tuple(self.long_term)
        object.__setattr__(self, "long_term", long_term)
        if long_term:
            object.__setattr__(self, "merged", merge_entries(list(long_term)))


@dataclass
class MemoryBank:
    scales: dict = field(default_factory=dict)  # stride -> ScaleMemory

    def at(self, scale: int) -> ScaleMemory:
        if scale not in self.scales:
            raise StateError(f"no memory at scale {scale}")
        return self.scales[scale]

    def write(self, entry: MemoryEntry, long_term: bool) -> None:
        """Replace the memory at `entry.scale` with one holding `entry` as short
        term; if asked, `entry` is also appended to long term and merged."""
        old = self.scales.get(entry.scale) or ScaleMemory()
        # a copy skips __post_init__, which would merge all of long term again
        mem = copy.copy(old)
        object.__setattr__(mem, "short_term", entry)
        if long_term:
            merged = merge_entries([entry] if old.merged is None else [old.merged, entry])
            object.__setattr__(mem, "long_term", old.long_term + (entry,))
            object.__setattr__(mem, "merged", merged)
        self.scales[entry.scale] = mem


def merge_entries(entries: list) -> MemoryEntry:
    """One entry holding the rows of `entries` in order; [a] gives a itself."""
    if not entries:
        raise StateError("empty long-term memory")
    if len(entries) == 1:
        return entries[0]
    keys = np.concatenate([e.keys for e in entries], axis=0)
    ids = np.concatenate([e.id_values for e in entries], axis=0)
    return MemoryEntry(scale=entries[0].scale, keys=keys, id_values=ids, frame_index=-1)


# --------------------------------------------------------------------------
# operation probe (for object-count-independence checks)

_probe = threading.local()


@contextlib.contextmanager
def probe_operations():
    """Collect (op, *shape) signatures of every attention/propagation call."""
    ops: list[tuple] = []
    _probe.ops = ops
    try:
        yield ops
    finally:
        _probe.ops = None


def _record(sig: tuple) -> None:
    ops = getattr(_probe, "ops", None)
    if ops is not None:
        ops.append(sig)


# --------------------------------------------------------------------------
# mask <-> id maps


def majority_downsample(mask: np.ndarray, stride: int, num_labels: int) -> np.ndarray:
    """Per-cell area-majority label, ties resolved to the lowest label.

    The label counts of all cells come from one `np.bincount` over
    `cell * num_labels + label`.  They are the integers a one-hot sum per
    cell gives, so the argmax and its lowest-label tie rule are unchanged
    (tests/test_propagation.py keeps the one-hot form as the reference).  A
    label outside [0, num_labels) would be counted in a neighbouring cell,
    so it raises `LabelError`.
    """
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ShapeError(f"mask must be 2-d, got shape {m.shape}")
    h, w = m.shape
    if h % stride or w % stride:
        raise ShapeError(f"mask dims {w}x{h} not divisible by stride {stride}")
    if m.size and (m.min() < 0 or m.max() >= num_labels):
        raise LabelError(
            f"mask labels must lie in [0, {num_labels - 1}], got {m.min()}..{m.max()}"
        )
    hc, wc = h // stride, w // stride
    cell = (np.arange(h) // stride * wc)[:, None] + np.arange(w) // stride
    counts = np.bincount((cell * num_labels + m).ravel(), minlength=hc * wc * num_labels)
    counts = counts.reshape(hc, wc, num_labels)
    return np.argmax(counts, axis=2).astype(np.int32)


def encode_mask_to_ids(mask: np.ndarray, bank: IdBank, stride: int) -> np.ndarray:
    """Map a label mask to per-cell ID embeddings at the given stride.

    Each stride cell receives the exact bank row of its area-majority label.
    Labels outside [0, max_objects] raise `LabelError`.  Returns
    [H/stride, W/stride, D].
    """
    labels = majority_downsample(mask, stride, bank.max_objects + 1)
    return bank.embeddings[labels]


# --------------------------------------------------------------------------
# attention + gated propagation


def _read_rows(q: np.ndarray, memory: MemoryEntry, scale: np.float32, att=None):
    s = matmul(q, memory.keys_t)
    s /= scale
    att = softmax(s, axis=-1, out=att)
    del s  # the scores are not kept alive through the read product (peak memory)
    return att, matmul(att, memory.values)


def _bind_read_executor() -> None:
    """Bind `_read_helpers`, the one executor of split-read helper threads.

    It starts no thread before its first submit and at most 7, the helpers
    of a read at the default maximum of 8 threads; more ranges wait for a
    free helper.  A forked child has none of the parent's helper threads, so
    it binds a new executor.
    """
    global _read_helpers
    _read_helpers = ThreadPoolExecutor(7, thread_name_prefix="mstrack-read")


_bind_read_executor()
os.register_at_fork(after_in_child=_bind_read_executor)


def _run_split(fn, ranges) -> None:
    """fn(lo, hi) for each range: the first on this thread, the rest on helpers.

    Returns, or raises the first error, only once every range has finished,
    so no helper still writes into the caller's arrays.
    """
    futures = [_read_helpers.submit(fn, *r) for r in ranges[1:]]
    try:
        fn(*ranges[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def attention_read(query: np.ndarray, memory: MemoryEntry, temperature=DEFAULT_TEMPERATURE):
    """One softmax attention read over a memory entry.

    att[i, j] = softmax_j(query_i . key_j / (temperature * sqrt(C)));
    vis_read = att . keys and id_read = att . id_values, both columns of the
    one product att . [keys | id_values].  Returns (att, vis_read, id_read).
    Query rows are read in chunks of at most `ATTENTION_CHUNK_ROWS`, and a
    read of at least `PARALLEL_READ_CELLS` cells in one row range per
    thread (module docstring); more than one chunk fills preallocated
    float32 `att` and read arrays.
    """
    q = np.asarray(query, dtype=np.float32)
    if q.ndim != 2:
        raise ShapeError(f"query must be [N, C], got shape {q.shape}")
    if q.shape[1] != memory.keys.shape[1]:
        raise ShapeError(
            f"query channels {q.shape[1]} != memory key channels {memory.keys.shape[1]}"
        )
    n, c = q.shape
    m = memory.keys.shape[0]
    scale = np.float32(temperature * np.sqrt(c))
    # only the main thread splits: other threads, the evaluation pool's, fill the CPUs already
    split = n * m >= PARALLEL_READ_CELLS and threading.current_thread() is threading.main_thread()
    parts = min(resolve_threads(0), n) if split else 1
    if parts <= 1 and n <= ATTENTION_CHUNK_ROWS:
        att, read = _read_rows(q, memory, scale)
    else:
        att = np.empty((n, m), dtype=np.float32)
        read = np.empty((n, memory.values.shape[1]), dtype=np.float32)

        # the threads together hold at most ATTENTION_CHUNK_ROWS rows of temporaries
        chunk = -(-ATTENTION_CHUNK_ROWS // parts)

        def read_range(lo, hi):
            for start in range(lo, hi, chunk):
                rows = slice(start, min(start + chunk, hi))
                _, read[rows] = _read_rows(q[rows], memory, scale, att[rows])

        bounds = [n * i // parts for i in range(parts + 1)]
        _run_split(read_range, list(zip(bounds, bounds[1:])))
    _record(("attention_read", n, m, c, memory.id_values.shape[1]))
    return att, read[:, :c], read[:, c:]


def _sigmoid(z: float) -> float:
    # piecewise form is exact at the saturated ends (sigmoid(-1e4) == 0.0)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


CLOSED_GATE_BIAS = -1.0e4


@dataclass(frozen=True)
class GateParams:
    """Gate biases of the four residual reads; each gate is sigmoid(bias)."""

    visual_long: float = 0.0
    id_long: float = 0.0
    visual_short: float = 0.0
    id_short: float = 0.0

    @staticmethod
    def closed() -> "GateParams":
        b = CLOSED_GATE_BIAS
        return GateParams(b, b, b, b)


def _gated_read(feats, ids, entry: MemoryEntry, vbias: float, ibias: float, temperature):
    _, vis_read, id_read = attention_read(feats, entry, temperature)
    gv = np.float32(_sigmoid(vbias))
    gi = np.float32(_sigmoid(ibias))
    return feats + gv * vis_read, ids + gi * id_read


def gpm_layer(
    query_feats: np.ndarray,
    query_ids: np.ndarray,
    memory_long: MemoryEntry,
    memory_short: MemoryEntry,
    gate_params: GateParams | None = None,
    temperature: float = DEFAULT_TEMPERATURE,
):
    """One gated propagation layer: long-term read, then short-term read.

    Both reads share one attention map per memory term, applied to the
    visual branch (values = keys) and the ID branch (values = id_values)
    through per-branch gated residuals.  Returns (feats', ids').
    """
    if memory_long is None or memory_short is None:
        raise StateError("gpm_layer requires long-term and short-term memory")
    gp = gate_params or GateParams()
    feats = np.asarray(query_feats, dtype=np.float32)
    ids = np.asarray(query_ids, dtype=np.float32)
    if feats.shape[0] != ids.shape[0]:
        raise ShapeError(f"feature rows {feats.shape[0]} != id rows {ids.shape[0]}")
    _record(
        (
            "gpm_layer",
            feats.shape[0],
            feats.shape[1],
            ids.shape[1],
            memory_long.keys.shape[0],
            memory_short.keys.shape[0],
        )
    )
    feats, ids = _gated_read(feats, ids, memory_long, gp.visual_long, gp.id_long, temperature)
    feats, ids = _gated_read(feats, ids, memory_short, gp.visual_short, gp.id_short, temperature)
    return feats, ids


def gpm_stage(
    query_feats: np.ndarray,
    mask_ids_in: np.ndarray,
    memory: ScaleMemory,
    n_layers: int,
    temperature: float = DEFAULT_TEMPERATURE,
) -> np.ndarray:
    """Run n_layers layers at one scale over the merged long-term memory; return ID rows."""
    if n_layers < 1:
        raise ConfigError(f"n_layers must be >= 1, got {n_layers}")
    short = memory.short_term
    if short is None:
        raise StateError("gpm_stage requires short-term memory")
    feats = np.asarray(query_feats, dtype=np.float32)
    ids = np.asarray(mask_ids_in, dtype=np.float32)
    d = short.id_values.shape[1]
    if ids.shape[1] != d:
        raise ShapeError(f"id rows must have {d} dims, got {ids.shape[1]}")
    if memory.merged is None:
        raise StateError("empty long-term memory")
    for _ in range(n_layers):
        feats, ids = gpm_layer(feats, ids, memory.merged, short, temperature=temperature)
    return ids


def read_id_logits(ids: np.ndarray, bank: IdBank, k: int) -> np.ndarray:
    """Per-cell logits against bank rows 0..k: logits[c, j] = ids[c] . row_j."""
    if k > bank.max_objects:
        raise LabelError(f"k={k} exceeds bank max_objects={bank.max_objects}")
    if k < 0:
        raise LabelError(f"k must be >= 0, got {k}")
    rows = np.ascontiguousarray(bank.embeddings[: k + 1].T)
    return matmul(np.asarray(ids, dtype=np.float32), rows)


# --------------------------------------------------------------------------
# row normalization used by the engine before matching


def scale_rows(x: np.ndarray, target_norm: float) -> np.ndarray:
    """Rescale each row to the target L2 norm; zero rows stay zero."""
    a = np.asarray(x, dtype=np.float32)
    norms = np.linalg.norm(a.astype(np.float64), axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return (a.astype(np.float64) / safe * target_norm).astype(np.float32)
