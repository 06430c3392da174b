"""Checkpoint persistence.

File layout: 8-byte magic ``ADQCKPT1``, little-endian uint32 header length,
UTF-8 JSON header, then the concatenated raw little-endian float64 blobs the
header indexes. The header carries the architecture (plus hash), epoch and
step counters, bit-width/channel state, quantizer ranges, AD history, and RNG
state, so a round trip restores training bit-for-bit.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from adq.errors import InputError
from adq.nn.arch import NetworkArch
from adq.nn.engine import TrainState

MAGIC = b"ADQCKPT1"


def _blob_entries(state: TrainState):
    for group, store in (("weights", state.weights), ("m", state.m),
                         ("v", state.v)):
        for lid in sorted(store):
            for name in sorted(store[lid]):
                yield group, lid, name, store[lid][name]


def save_checkpoint(path, arch: NetworkArch, state: TrainState, *,
                    bits=None, channels=None, ad_history=None,
                    quant_state=None):
    blobs = []
    index = []
    offset = 0
    for group, lid, name, arr in _blob_entries(state):
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        index.append({
            "group": group, "layer": lid, "name": name,
            "shape": list(arr.shape), "offset": offset, "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format": 1,
        "arch": arch.to_dict(),
        "arch_hash": arch.arch_hash(),
        "epoch": state.epoch,
        "step": state.step,
        "rng_seed": state.rng_seed,
        "rng_state": _encode_rng(state.rng),
        "bits": bits,
        "channels": channels,
        "ad_history": ad_history,
        "quant_state": quant_state,
        "extra": None,  # unused; kept so format-1 bytes do not move
        "blobs": index,
    }
    payload = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)
        for raw in blobs:
            f.write(raw)


def load_checkpoint(path):
    """Returns (arch, state, header) with arrays restored bit-identically."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise InputError(f"{path!r} is not a checkpoint file")
        (hlen,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen).decode("utf-8"))
        body = f.read()
    arch = NetworkArch.from_dict(header["arch"])
    weights, m, v = {}, {}, {}
    stores = {"weights": weights, "m": m, "v": v}
    for ent in header["blobs"]:
        arr = np.frombuffer(
            body, dtype="<f8", count=int(np.prod(ent["shape"], dtype=int)),
            offset=ent["offset"]).reshape(ent["shape"]).copy()
        stores[ent["group"]].setdefault(ent["layer"], {})[ent["name"]] = arr
    rng = _decode_rng(header["rng_state"], header["rng_seed"])
    state = TrainState(weights=weights, m=m, v=v, step=header["step"],
                       epoch=header["epoch"], rng_seed=header["rng_seed"],
                       rng=rng)
    return arch, state, header


def _encode_rng(rng: np.random.Generator) -> dict:
    st = rng.bit_generator.state
    return {"state": str(st["state"]["state"]), "inc": str(st["state"]["inc"]),
            "has_uint32": st["has_uint32"], "uinteger": st["uinteger"]}


def _decode_rng(enc, seed) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64(seed))
    if enc:
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": int(enc["state"]), "inc": int(enc["inc"])},
            "has_uint32": enc["has_uint32"],
            "uinteger": enc["uinteger"],
        }
    return rng
