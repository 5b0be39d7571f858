"""Model checkpointing to ``.npz``.

Checkpoints hold the flat parameter state-dict plus a small JSON header
(model class name, step counter), enough to restore a model built with
the same constructor arguments — matching how the sweep benchmarks
retrain-and-restore best epochs.

Dtype policy
------------
Training state is float64 (the substrate pins :class:`repro.nn.module
.Parameter` to double precision), but serving wants float32 end-to-end:
``save_checkpoint(..., dtype="float32")`` exports a half-size archive,
and ``restore_model(..., dtype="float32")`` rebinds the model's
parameter buffers to float32 so a serving process (e.g. one feeding a
:class:`repro.serving.ServingEngine`) never materialises double
precision weights at all.  The stored dtype is recorded in the metadata
header; loading with no explicit ``dtype`` keeps the model's own
parameter dtype (values are cast on assignment), so training round-trips
are unchanged.

Sharded tables
--------------
State dicts are *canonical*: an embedding table checkpoints as one
logical ``weight`` array no matter how its :mod:`repro.store` backend
partitions the rows, so a single-file checkpoint already restores
across any shard count (save dense → load 4-shard, save 4-shard → load
3-shard, …) with bit-identical values.

``save_checkpoint(..., shard_files=True)`` additionally splits every
*sharded* table out of the main archive into per-shard side files
(``<stem>.<entry>.shard<k>.npz`` holding that shard's ``ids`` + ``rows``
only), recorded in a ``shards`` manifest inside the metadata header.
No process then ever has to hold a full table: each shard worker saves
its own rows, and :func:`restore_model` streams each shard file into
whichever shards of the *target* layout own those rows
(:meth:`repro.store.EmbeddingStore.assign_rows`) — the shard-count
rebind never materialises the logical table either.
:func:`load_checkpoint` reassembles shard files into the logical table
by default so non-streaming consumers keep one uniform payload shape.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.nn.module import Module
from repro.store import EmbeddingStore, ProcessShardedStore, iter_stores

__all__ = ["save_checkpoint", "load_checkpoint", "restore_model"]

PathLike = Union[str, Path]

_META_KEY = "__checkpoint_meta__"


def _coerce_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"checkpoint dtype must be float32|float64, got {dtype!r}")
    return resolved


def _base_store(store: EmbeddingStore) -> EmbeddingStore:
    """Unwrap decorator tiers (LRU cache, quantised shadow) to the layout.

    The *wrapper* stays the streaming target — its ``assign_rows`` is
    what re-quantises written rows / invalidates cached ones — but the
    layout decision (is this table sharded?) belongs to the base store.
    """
    while isinstance(getattr(store, "inner", None), EmbeddingStore):
        store = store.inner
    return store


def _sharded_entries(model: Module) -> Dict[str, EmbeddingStore]:
    """Canonical state-entry name → store, for every sharded table.

    The sharded layout is :class:`ProcessShardedStore`, which streams
    rows per shard without materialising the logical table.  Wrapper tiers
    (:class:`repro.store.LRUCachedStore`,
    :class:`repro.store.QuantizedStore`) are looked *through* for the
    layout check while the wrapped store keeps handling the streaming.
    """
    out: Dict[str, EmbeddingStore] = {}
    if hasattr(model, "named_modules"):
        for name, store in iter_stores(model):
            if isinstance(_base_store(store), ProcessShardedStore):
                out[f"{name}.weight" if name != "<root>" else "weight"] = store
    return out


def _shard_file_name(path: Path, entry: str, shard: int) -> str:
    return f"{path.stem}.{entry}.shard{shard}.npz"


def save_checkpoint(
    model: Module,
    path: PathLike,
    extra: Optional[Dict] = None,
    dtype: Optional[str] = None,
    shard_files: bool = False,
) -> Path:
    """Write ``model``'s parameters (and optional metadata) to ``path``.

    ``dtype`` optionally casts every array on export (``"float32"``
    halves the archive and lets serving load reduced precision
    directly); ``None`` stores parameters as they are.  With
    ``shard_files=True`` each sharded table's rows go to per-shard side
    files instead of the main archive (see the module docstring); the
    flag is a no-op for fully dense models.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    resolved = None if dtype is None else _coerce_dtype(dtype)
    sharded = _sharded_entries(model) if shard_files else {}
    # exclude= keeps the sharded tables' logical arrays from ever being
    # materialised — their rows go straight from the shard buffers to
    # the side files below, preserving the per-shard memory model.
    payload = model.state_dict(exclude=sharded)
    if resolved is not None:
        payload = {k: np.asarray(v, dtype=resolved) for k, v in payload.items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, dict] = {}
    for entry, store in sharded.items():
        files = []
        for shard in range(store.n_shards):
            ids, rows = store.shard_rows(shard)
            if resolved is not None:
                rows = np.asarray(rows, dtype=resolved)
            file_name = _shard_file_name(path, entry, shard)
            np.savez_compressed(path.parent / file_name, ids=ids, rows=rows)
            files.append(file_name)
        manifest[entry] = {
            "n_shards": store.n_shards,
            "partition": store.partition,
            "rows": store.num_rows,
            "dim": store.dim,
            "files": files,
        }
    if payload:
        stored = str(next(iter(payload.values())).dtype)
    elif resolved is not None:
        stored = str(resolved)
    elif sharded:
        # Every entry went to shard files (fully-sharded table-only
        # models): report the shards' actual buffer dtype.
        first = next(iter(sharded.values()))
        stored = str(first.shard_rows(0)[1].dtype)
    else:
        stored = "float64"
    meta = {"model_class": type(model).__name__, "dtype": stored, "extra": extra or {}}
    if manifest:
        meta["shards"] = manifest
    payload[_META_KEY] = np.bytes_(json.dumps(meta).encode())
    np.savez_compressed(path, **payload)
    return path


def load_checkpoint(path: PathLike, assemble_shards: bool = True) -> Dict:
    """Read a checkpoint into ``{"state": {...}, "meta": {...}}``.

    Arrays come back in their stored dtype; ``meta["dtype"]`` names it
    (older checkpoints without the field were float64).  When the
    checkpoint was written with per-shard files, ``assemble_shards=True``
    (default) reassembles each sharded entry into its logical table so
    every consumer sees one uniform state dict;
    ``assemble_shards=False`` leaves those entries out of ``state`` (the
    streaming path :func:`restore_model` takes).
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(".npz").exists():
        path = path.with_suffix(".npz")
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(bytes(archive[_META_KEY]).decode())
        state = {k: archive[k] for k in archive.files if k != _META_KEY}
    meta.setdefault("dtype", "float64")
    if assemble_shards:
        for entry, spec in meta.get("shards", {}).items():
            table = None
            for file_name in spec["files"]:
                with np.load(path.parent / file_name, allow_pickle=False) as part:
                    ids, rows = part["ids"], part["rows"]
                if table is None:
                    table = np.empty((spec["rows"], spec["dim"]), dtype=rows.dtype)
                table[ids] = rows
            state[entry] = table
    return {"state": state, "meta": meta}


def _store_for_entry(model: Module, entry: str):
    """Resolve a manifest entry (``<module path>.weight``) to its store."""
    stores = {
        (f"{name}.weight" if name != "<root>" else "weight"): store
        for name, store in iter_stores(model)
    }
    return stores.get(entry)


def restore_model(
    model: Module,
    path: PathLike,
    strict: bool = True,
    dtype: Optional[str] = None,
) -> Dict:
    """Load a checkpoint's parameters into ``model``; returns the metadata.

    ``dtype=None`` (default) assigns values into the model's existing
    parameter buffers — training keeps its float64 state regardless of
    how the archive was stored.  An explicit ``dtype`` *rebinds* the
    parameter buffers to that precision (the float32 serving path); such
    a model should only be used under ``no_grad``/serving scopes, not
    trained or gradchecked.

    Per-shard checkpoints stream: each shard file's rows are scattered
    straight into the target model's store
    (:meth:`repro.store.EmbeddingStore.assign_rows`), which re-partitions
    them under whatever shard count (or dense layout) the target uses —
    the logical table is never materialised, and restored scores are
    bit-identical across layouts.

    Raises ``ValueError`` when the checkpoint came from a different model
    class (unless ``strict=False``).
    """
    payload = load_checkpoint(path, assemble_shards=False)
    if strict and payload["meta"]["model_class"] != type(model).__name__:
        raise ValueError(
            f"checkpoint is for {payload['meta']['model_class']}, "
            f"refusing to load into {type(model).__name__}"
        )
    resolved = None if dtype is None else _coerce_dtype(dtype)
    manifest = payload["meta"].get("shards", {})
    if not manifest:
        model.load_state_dict(payload["state"], strict=strict, dtype=resolved)
    else:
        state = payload["state"]
        if strict:
            expected = set(model._state_names())
            provided = set(state) | set(manifest)
            missing = expected - provided
            unexpected = provided - expected
            if missing or unexpected:
                raise KeyError(
                    f"state mismatch: missing={sorted(missing)} "
                    f"unexpected={sorted(unexpected)}"
                )
        model.load_state_dict(state, strict=False, dtype=resolved)
        base = Path(path)
        if not base.exists() and base.with_suffix(".npz").exists():
            base = base.with_suffix(".npz")
        for entry, spec in manifest.items():
            store = _store_for_entry(model, entry)
            if store is None:
                if strict:
                    raise KeyError(
                        f"checkpoint shard entry {entry!r} has no store-backed "
                        "embedding in the target model"
                    )
                continue
            if (store.num_rows, store.dim) != (spec["rows"], spec["dim"]):
                raise ValueError(
                    f"shape mismatch for {entry}: ({store.num_rows}, {store.dim}) "
                    f"vs ({spec['rows']}, {spec['dim']})"
                )
            if resolved is not None:
                store.rebind_dtype(resolved)
            for file_name in spec["files"]:
                with np.load(base.parent / file_name, allow_pickle=False) as part:
                    store.assign_rows(part["ids"], part["rows"])
    if hasattr(model, "invalidate_cache"):
        model.invalidate_cache()
    return payload["meta"]
