"""Identification embeddings, per-scale memory, and gated propagation.

The propagation core transfers mask identity from memory frames to the
current frame.  Each tracked object (plus background, label 0) owns one id
column: a mask is encoded into per-cell one-hot label rows by majority vote
inside each stride cell, and a label's logit is its id column.  Each stride
keeps one long-term entry, anchored on the reference frame, whose rows are
the reference rows followed by those of every later long-term frame, and a
short-term entry for the last stored frame.  `MemoryBank.write` is the only
code that extends long-term memory; it merges each new long-term entry into
that one there, so no read merges anything and no frame's own entry outlives
its turn as short term.  Each gated propagation layer of a stage reads
long-term then short-term memory through shared softmax attention computed
from visual features only, and applies the read to both branches through a
sigmoid-gated residual:

    att     = softmax(query . keys^T / (temperature * sqrt(C)))
    out     = in + sigmoid(bias) * (att . values)

with values = memory keys on the visual branch and memory id_values on the
ID branch.  Both branches come from one product, att . [keys | id_values].
Each of the four reads has its own scalar gate bias; bias 0 (the default) is
a uniform half-open gate.  C is the entry's `channels`, the encoder's
configured channel count, which may exceed the key width L: the handcrafted
encoder emits only its 8 real channels of the default C = 32.

An entry holds its rows once, as one float64 [N, L+D] array of float32
values (`values`), 8 (L + D) bytes a row; its keys and id rows are views of
it, so a read converts only the query and the attention map.  The engine's
id rows are one-hot labels, D = max_objects + 1: a row is 104 B at the
defaults (L = 8, D = 5).  Each long-term write builds one new merged entry,
the kept rows then the new frame's in one concatenation, and the entry it
replaces is freed once nothing else holds it.  No array is written after the
entry that views it is built, so banks given the same memory, or a memory
set back to an earlier one, never see each other's rows.

A read is serial: it takes its query rows in chunks of `CELL_BUDGET // m`
rows (at least one) against m memory rows, so a chunk's float64 scores take
at most 1 MB whatever the frame size or memory width, small enough for a
core's L2 cache.  The chunks reuse one set of scratch buffers (float64
scores, float32 weights, a float64 read product) allocated once per read.
The engine asks for no attention map (`keep_att=False`), so no read holds a
query x memory map.  Every chunk is the same `softmax(matmul(...))` and
`matmul` over its rows, so the bytes do not depend on the chunking
(tests/test_propagation.py compares them with one composed read).  Reads
start no threads; `MSTRACK_THREADS` sets only the evaluation pool.

For the same query rows, the operation counts and tensor shapes of
`gpm_stage` never depend on the number of tracked objects;
`probe_operations` records (name, shape) signatures so tests can assert
that.  A whole engine step is not shape-invariant: the engine runs the
stride-8 stage only on the rows where stride 16 is unsure (see the `engine`
docstring), and how many those are depends on the predicted mask, and so on
the object count.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import LabelError, ShapeError, StateError, check_range
from .kernels import matmul, softmax

DEFAULT_TEMPERATURE = 0.1
# labels 0..255: masks are 8-bit
MAX_LABELS = 256
# query rows x memory rows per attention chunk: 1 MB of float64 scores
CELL_BUDGET = 1 << 17


# --------------------------------------------------------------------------
# memory


@dataclass(frozen=True)
class MemoryEntry:
    """Memory rows of one frame, or of several merged.

    The rows are held once, in `values`, a float64 [N, L+D] array of
    float32 values: the keys, then the id rows.  `keys` [N, L] and
    `id_values` [N, D] are views of it, so `matmul` takes them without
    converting memory on every read, and BLAS takes `keys.T` as a
    transposed operand without a copy.  L is the key width, and the
    keyword-only `channels` records the encoder's C (module docstring), the
    width that sets a read's score scale; it defaults to L.  A row costs
    8 (L+D) bytes: 104 in the engine at the defaults, L = 8 and one-hot id
    rows of D = max_objects + 1 = 5 labels.  The arrays are read-only, and
    each entry owns its `values`: one built from keys and id rows converts
    them, and one that `merge_entries` built holds the concatenation.
    """

    scale: int  # stride, 16 or 8
    keys: np.ndarray  # [N, L] flattened spatial cells
    id_values: np.ndarray  # [N, D]
    frame_index: int
    channels: int | None = field(default=None, kw_only=True)  # C; None means L
    values: np.ndarray = field(init=False, repr=False, compare=False)  # [N, L+D]

    def __post_init__(self):
        if self.keys.ndim != 2 or self.id_values.ndim != 2:
            raise ShapeError("memory keys and id_values must be 2-d row matrices")
        if self.keys.shape[0] != self.id_values.shape[0]:
            raise ShapeError(
                f"memory row mismatch: {self.keys.shape[0]} keys vs "
                f"{self.id_values.shape[0]} id rows"
            )
        if self.keys.shape[0] == 0:
            raise ShapeError("memory entry has no rows; a read needs at least one")
        n, c = self.keys.shape
        channels = c if self.channels is None else self.channels
        if channels < c:
            raise ShapeError(f"memory of {channels} channels cannot hold {c} key columns")
        values = np.empty((n, c + self.id_values.shape[1]), dtype=np.float64)
        values[:, :c] = np.asarray(self.keys, np.float32)
        values[:, c:] = np.asarray(self.id_values, np.float32)
        self._view(values, c, channels)

    def _view(self, values: np.ndarray, c: int, channels: int) -> None:
        values.flags.writeable = False
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "keys", values[:, :c])
        object.__setattr__(self, "id_values", values[:, c:])

    @classmethod
    def _of_rows(cls, scale: int, values: np.ndarray, c: int, channels: int) -> "MemoryEntry":
        """The entry of the float64 rows `values`, viewed without a copy."""
        entry = object.__new__(cls)
        object.__setattr__(entry, "scale", scale)
        object.__setattr__(entry, "frame_index", -1)
        entry._view(values, c, channels)
        return entry


@dataclass(frozen=True)
class ScaleMemory:
    """Per-stride memory: reference-anchored long term plus previous frame.

    `long_term` is a tuple of at most one entry, holding every long-term
    row with the reference rows first.  A given list of entries is merged
    once into that entry; a single entry is kept as it is.  The memory is
    frozen: `MemoryBank.write` replaces it with one that holds the new
    entry, so a read never sees a memory half written.
    """

    long_term: tuple = ()
    short_term: MemoryEntry | None = None

    def __post_init__(self):
        entries = tuple(self.long_term)
        if len(entries) > 1:
            entries = (merge_entries(list(entries)),)
        object.__setattr__(self, "long_term", entries)


@dataclass
class MemoryBank:
    scales: dict = field(default_factory=dict)  # stride -> ScaleMemory

    def at(self, scale: int) -> ScaleMemory:
        if scale not in self.scales:
            raise StateError(f"no memory at scale {scale}")
        return self.scales[scale]

    def write(self, entry: MemoryEntry, long_term: bool) -> None:
        """Replace the memory at `entry.scale` with one holding `entry` as short
        term; if asked, long term becomes one new entry, its rows then `entry`'s."""
        lt = (self.scales.get(entry.scale) or ScaleMemory()).long_term
        if long_term:
            lt = (merge_entries([*lt, entry]),)
        self.scales[entry.scale] = ScaleMemory(lt, entry)


def merge_entries(entries: list) -> MemoryEntry:
    """One entry holding the rows of `entries` in order, or a itself for [a].

    The rows are concatenated into one new array, which the entry owns.
    Entries of different strides, widths or `channels` raise `ShapeError`.
    """
    if not entries:
        raise StateError("empty long-term memory")
    first = entries[0]
    c, d = first.keys.shape[1], first.id_values.shape[1]
    for e in entries[1:]:
        if e.scale != first.scale:
            raise ShapeError(
                f"cannot merge stride-{e.scale} memory into stride-{first.scale} memory"
            )
        if (e.keys.shape[1], e.id_values.shape[1]) != (c, d):
            raise ShapeError(
                f"cannot merge memory rows of {e.keys.shape[1]} key and {e.id_values.shape[1]} id "
                f"columns into rows of {c} key and {d} id columns"
            )
        if e.channels != first.channels:
            raise ShapeError(
                f"cannot merge memory of {e.channels} channels into memory of "
                f"{first.channels} channels"
            )
    if len(entries) == 1:
        return first
    values = np.concatenate([e.values for e in entries])
    return MemoryEntry._of_rows(first.scale, values, c, first.channels)


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
    so it raises `LabelError`; a mask that is not a 2-d integer or bool array
    raises `ShapeError`.
    """
    m = np.asarray(mask)
    if m.ndim != 2 or m.dtype.kind not in "biu":
        raise ShapeError(f"mask must be a 2-d integer or bool array, got {m.dtype} {m.shape}")
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


def encode_mask_to_ids(mask: np.ndarray, num_labels: int, stride: int) -> np.ndarray:
    """Map a label mask to per-cell one-hot label rows at the given stride.

    Each stride cell receives the one-hot float32 row of its area-majority
    label, one column per label.  A label count outside [1, MAX_LABELS] and
    labels outside [0, num_labels) raise `LabelError`.  Returns
    [H/stride, W/stride, num_labels].
    """
    if not 1 <= num_labels <= MAX_LABELS:
        raise LabelError(f"num_labels must lie in [1, {MAX_LABELS}], got {num_labels}")
    labels = majority_downsample(mask, stride, num_labels)
    return np.eye(num_labels, dtype=np.float32)[labels]


# --------------------------------------------------------------------------
# attention + gated propagation


def attention_read(
    query: np.ndarray, memory: MemoryEntry, temperature=DEFAULT_TEMPERATURE, *, keep_att=True
):
    """One softmax attention read over a memory entry.

    att[i, j] = softmax_j(query_i . key_j / (temperature * sqrt(C))), with
    C = `memory.channels`, not the key width; vis_read = att . keys and
    id_read = att . id_values, both columns of the one product
    att . [keys | id_values].  Returns (att, vis_read, id_read),
    with att None under `keep_att=False`.  Query rows are read in chunks of
    `CELL_BUDGET // m` rows, one after another, which fill preallocated
    float32 read arrays, and `att` only when it is kept; every chunk reuses
    one set of scratch buffers.
    """
    q = np.asarray(query, dtype=np.float32)
    if q.ndim != 2:
        raise ShapeError(f"query must be [N, C], got shape {q.shape}")
    if q.shape[1] != memory.keys.shape[1]:
        raise ShapeError(
            f"query channels {q.shape[1]} != memory key channels {memory.keys.shape[1]}"
        )
    n, c = q.shape
    m, width = memory.values.shape
    scale = np.float32(temperature * np.sqrt(memory.channels))
    chunk = max(1, CELL_BUDGET // m)
    rows = min(chunk, n)
    att = np.empty((n, m), dtype=np.float32) if keep_att else None
    read = np.empty((n, width), dtype=np.float32)
    # one set of chunk buffers: float64 scores, float32 weights (a kept map
    # holds them instead) and a float64 read product
    scores, product = np.empty((rows, m)), np.empty((rows, width))
    weights = np.empty((rows, m), dtype=np.float32) if att is None else None
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        k = stop - start
        w = weights[:k] if att is None else att[start:stop]
        s = scores[:k]
        matmul(q[start:stop], memory.keys.T, out=w, work=s)
        w /= scale
        softmax(w, out=w, work=s)
        s[...] = w  # the float32 weights, exactly, as the read's float64 operand
        matmul(s, memory.values, out=read[start:stop], work=product[:k])
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
    _, vis_read, id_read = attention_read(feats, entry, temperature, keep_att=False)
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
    check_range("n_layers", n_layers, 1)
    short = memory.short_term
    if short is None:
        raise StateError("gpm_stage requires short-term memory")
    feats = np.asarray(query_feats, dtype=np.float32)
    ids = np.asarray(mask_ids_in, dtype=np.float32)
    d = short.id_values.shape[1]
    if ids.shape[1] != d:
        raise ShapeError(f"id rows must have {d} dims, got {ids.shape[1]}")
    if not memory.long_term:
        raise StateError("empty long-term memory")
    for _ in range(n_layers):
        feats, ids = gpm_layer(feats, ids, memory.long_term[0], short, temperature=temperature)
    return ids


def read_id_logits(ids: np.ndarray, k: int) -> np.ndarray:
    """Per-cell logits of labels 0..k: the first k + 1 id columns, as a view."""
    a = np.asarray(ids, dtype=np.float32)
    d = a.shape[-1]
    if not 0 <= k < d:
        raise LabelError(f"k must lie in [0, {d - 1}] for {d} id columns, got {k}")
    return a[..., : k + 1]


# --------------------------------------------------------------------------
# row normalization used by the engine before matching


def scale_rows(x: np.ndarray, target_norm: float) -> np.ndarray:
    """Rescale each row to the target L2 norm; zero rows stay zero."""
    a = np.asarray(x, dtype=np.float32)
    norms = np.linalg.norm(a.astype(np.float64), axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return (a.astype(np.float64) / safe * target_norm).astype(np.float32)
