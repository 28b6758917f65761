"""Binary checkpoint format.

Layout: 4 magic bytes "PSAN", one version byte, a 4-byte little-endian
manifest length, the UTF-8 JSON manifest, then the raw little-endian float
payload. The manifest carries the config snapshot and, for every state
tensor, its name, shape, dtype, and byte offset into the payload; the
tensors tile the payload in order. Entry order is the model's deterministic
state order, so save -> load -> save is byte-identical. A save writes a
temporary file beside the target and renames it over the target, so a
failed save leaves the old file intact.
"""

import json
import os
import struct

import numpy as np

from .config import ModelConfig
from .model import TextRecognizer

MAGIC = b"PSAN"
VERSION = 1
_DTYPE_CODES = {"float32": "f32", "float64": "f64"}
_DTYPE_FROM_CODE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_ENTRY_KEYS = {"name", "shape", "dtype", "offset"}


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, model):
    entries = model.state_entries()
    tensors = []
    payload = bytearray()
    for name, arr in entries:
        code = _DTYPE_CODES.get(arr.dtype.name)
        if code is None:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        tensors.append({"name": name, "shape": list(arr.shape), "dtype": code,
                        "offset": len(payload)})
        payload.extend(np.ascontiguousarray(arr, dtype=_DTYPE_FROM_CODE[code]).tobytes())
    manifest = {"config": model.cfg.to_dict(), "tensors": tensors}
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(bytes([VERSION]))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _well_formed(entry):
    """A manifest tensor entry has every key, a list of sizes and an offset."""
    if not (isinstance(entry, dict) and _ENTRY_KEYS <= entry.keys()):
        return False
    sizes = entry["shape"] if isinstance(entry["shape"], list) else [-1]
    return all(isinstance(v, int) and v >= 0 for v in sizes + [entry["offset"]])


def load_checkpoint(path):
    """Read a checkpoint and rebuild the model it describes, at the precision
    its config names."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 9 or data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    if data[4] != VERSION:
        raise CheckpointError(f"{path}: unsupported version {data[4]}, expected {VERSION}")
    (mlen,) = struct.unpack("<I", data[5:9])
    if len(data) < 9 + mlen:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(data[9:9 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest ({exc})") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("tensors"), list)):
        raise CheckpointError(f"{path}: manifest must be an object with a "
                              f"'config' object and a 'tensors' list")
    payload = data[9 + mlen:]

    cfg = ModelConfig.from_dict(manifest["config"])
    model = TextRecognizer(cfg)  # the arrays take the checkpoint's dtype
    state = dict(model.state_entries())
    if len(state) != len(manifest["tensors"]):
        raise CheckpointError(f"{path}: manifest has {len(manifest['tensors'])} tensors, "
                              f"model expects {len(state)}")
    end = 0
    for entry in manifest["tensors"]:
        if not _well_formed(entry):
            raise CheckpointError(f"{path}: malformed tensor entry {entry!r}")
        name = entry["name"]
        arr = state.get(name)
        if arr is None:
            raise CheckpointError(f"{path}: unknown tensor {name!r} in manifest")
        shape = tuple(entry["shape"])
        if shape != arr.shape:
            raise CheckpointError(f"{path}: tensor {name!r} shape {shape} "
                                  f"does not match model shape {arr.shape}")
        dtype = _DTYPE_FROM_CODE.get(entry["dtype"])
        if dtype is None:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype "
                                  f"{entry['dtype']!r}")
        start = entry["offset"]
        if start != end:
            raise CheckpointError(f"{path}: tensor {name!r} starts at byte {start}, not {end}")
        end = start + int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated payload for tensor {name!r}")
        values = np.frombuffer(payload[start:end], dtype=dtype).reshape(shape)
        arr[...] = values.astype(arr.dtype)
    if end != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - end} bytes follow the last tensor")
    return model, cfg
