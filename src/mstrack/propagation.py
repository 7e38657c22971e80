"""Identification embeddings, per-scale memory, and gated propagation.

The propagation core transfers mask identity from memory frames to the
current frame.  Each tracked object (plus background, row 0) owns a fixed
embedding row in an IdBank.  A mask is encoded into a per-cell ID map by
majority vote inside each stride cell.  A gated propagation layer reads
long-term then short-term memory through shared softmax attention computed
from visual features only, and applies the read to both branches through a
sigmoid-gated residual:

    att     = softmax(query . keys^T / (temperature * sqrt(C)))
    out     = in + sigmoid(bias) * (att . values)

with values = memory keys on the visual branch and memory id_values on the
ID branch.  Both branches come from one product, att . [keys | id_values].
Each of the four reads has its own scalar gate bias; bias 0 (the default) is
a uniform half-open gate.

Operation counts and tensor shapes never depend on the number of tracked
objects; `probe_operations` records (name, shape) signatures so tests can
assert that.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LabelError, ShapeError, StateError
from .kernels import matmul, softmax

MAX_BANK_RESEEDS = 100
MAX_PAIRWISE_DOT = 0.9


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

    Attention reads use `keys_t` and `values`, built once per entry; `keys`
    and `id_values` become float32 views into `values`, so the rows are
    held once.
    """

    scale: int  # stride, 16 or 8
    keys: np.ndarray  # [N, C] flattened spatial cells
    id_values: np.ndarray  # [N, D]
    frame_index: int
    keys_t: np.ndarray = field(init=False, repr=False, compare=False)  # [C, N]
    values: np.ndarray = field(init=False, repr=False, compare=False)  # [N, C+D]

    def __post_init__(self):
        if self.keys.ndim != 2 or self.id_values.ndim != 2:
            raise ShapeError("memory keys and id_values must be 2-d row matrices")
        if self.keys.shape[0] != self.id_values.shape[0]:
            raise ShapeError(
                f"memory row mismatch: {self.keys.shape[0]} keys vs "
                f"{self.id_values.shape[0]} id rows"
            )
        c = self.keys.shape[1]
        values = np.concatenate(
            [np.asarray(self.keys, np.float32), np.asarray(self.id_values, np.float32)], axis=1
        )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "keys", values[:, :c])
        object.__setattr__(self, "id_values", values[:, c:])
        object.__setattr__(self, "keys_t", np.ascontiguousarray(values[:, :c].T))


@dataclass
class ScaleMemory:
    """Per-stride memory: reference-anchored long term plus previous frame."""

    long_term: list = field(default_factory=list)
    short_term: MemoryEntry | None = None


@dataclass
class MemoryBank:
    scales: dict = field(default_factory=dict)  # stride -> ScaleMemory

    def at(self, scale: int) -> ScaleMemory:
        if scale not in self.scales:
            raise StateError(f"no memory at scale {scale}")
        return self.scales[scale]


def merge_entries(entries) -> MemoryEntry:
    if isinstance(entries, MemoryEntry):
        return entries
    if not entries:
        raise StateError("empty memory")
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
    """Per-cell area-majority label, ties resolved to the lowest label."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ShapeError(f"mask must be 2-d, got shape {m.shape}")
    h, w = m.shape
    if h % stride or w % stride:
        raise ShapeError(f"mask dims {w}x{h} not divisible by stride {stride}")
    onehot = np.equal(m[:, :, None], np.arange(num_labels)[None, None, :])
    counts = (
        onehot.reshape(h // stride, stride, w // stride, stride, num_labels)
        .sum(axis=(1, 3), dtype=np.int64)
    )
    return np.argmax(counts, axis=2).astype(np.int32)


def encode_mask_to_ids(mask: np.ndarray, bank: IdBank, stride: int) -> np.ndarray:
    """Map a label mask to per-cell ID embeddings at the given stride.

    Each stride cell receives the exact bank row of its area-majority label.
    Returns [H/stride, W/stride, D].
    """
    m = np.asarray(mask)
    if m.size and (m.min() < 0 or m.max() > bank.max_objects):
        raise LabelError(
            f"mask labels must lie in [0, {bank.max_objects}], got max {m.max()}"
        )
    labels = majority_downsample(m, stride, bank.max_objects + 1)
    return bank.embeddings[labels]


# --------------------------------------------------------------------------
# attention + gated propagation


def attention_read(query: np.ndarray, memory: MemoryEntry, temperature: float = 0.1):
    """One softmax attention read over a memory entry.

    att[i, j] = softmax_j(query_i . key_j / (temperature * sqrt(C)));
    vis_read = att . keys and id_read = att . id_values, both columns of the
    one product att . [keys | id_values].  Returns (att, vis_read, id_read).
    """
    q = np.asarray(query, dtype=np.float32)
    if q.ndim != 2:
        raise ShapeError(f"query must be [N, C], got shape {q.shape}")
    if q.shape[1] != memory.keys.shape[1]:
        raise ShapeError(
            f"query channels {q.shape[1]} != memory key channels {memory.keys.shape[1]}"
        )
    c = q.shape[1]
    # the scores are not kept alive through the read product (peak memory)
    att = softmax(matmul(q, memory.keys_t) / np.float32(temperature * np.sqrt(c)), axis=-1)
    read = matmul(att, memory.values)
    _record(("attention_read", q.shape[0], memory.keys.shape[0], c, memory.id_values.shape[1]))
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
    memory_long,
    memory_short: MemoryEntry,
    gate_params: GateParams | None = None,
    temperature: float = 0.1,
):
    """One gated propagation layer: long-term read, then short-term read.

    Both reads share one attention map per memory term, applied to the
    visual branch (values = keys) and the ID branch (values = id_values)
    through per-branch gated residuals.  Returns (feats', ids').
    """
    if memory_long is None or (isinstance(memory_long, list) and not memory_long):
        raise StateError("gpm_layer requires non-empty long-term memory")
    if memory_short is None:
        raise StateError("gpm_layer requires short-term memory")
    gp = gate_params or GateParams()
    feats = np.asarray(query_feats, dtype=np.float32)
    ids = np.asarray(query_ids, dtype=np.float32)
    if feats.shape[0] != ids.shape[0]:
        raise ShapeError(f"feature rows {feats.shape[0]} != id rows {ids.shape[0]}")
    long_entry = merge_entries(memory_long)
    _record(
        (
            "gpm_layer",
            feats.shape[0],
            feats.shape[1],
            ids.shape[1],
            long_entry.keys.shape[0],
            memory_short.keys.shape[0],
        )
    )
    feats, ids = _gated_read(feats, ids, long_entry, gp.visual_long, gp.id_long, temperature)
    feats, ids = _gated_read(feats, ids, memory_short, gp.visual_short, gp.id_short, temperature)
    return feats, ids


def gpm_stage(
    query_feats: np.ndarray,
    mask_ids_in: np.ndarray,
    bank: IdBank,
    memory: ScaleMemory,
    n_layers: int,
    scale: int,
    gate_params: GateParams | None = None,
    temperature: float = 0.1,
) -> np.ndarray:
    """Apply n_layers propagation layers at one scale; return final ID rows."""
    if n_layers < 1:
        raise ConfigError(f"n_layers must be >= 1, got {n_layers}")
    feats = np.asarray(query_feats, dtype=np.float32)
    ids = np.asarray(mask_ids_in, dtype=np.float32)
    if ids.shape[1] != bank.id_dim:
        raise ShapeError(f"id rows must have {bank.id_dim} dims, got {ids.shape[1]}")
    for _ in range(n_layers):
        feats, ids = gpm_layer(
            feats, ids, memory.long_term, memory.short_term, gate_params, temperature
        )
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
