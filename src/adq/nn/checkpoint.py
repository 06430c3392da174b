"""Checkpoint persistence.

File layout: 8-byte magic ``ADQCKPT1``, little-endian uint32 header length,
UTF-8 JSON header, then the concatenated raw little-endian float64 blobs the
header indexes. The header carries the architecture (plus hash), epoch and
step counters, bit-width/channel state, quantizer ranges, AD history, and RNG
state, so a round trip restores training bit-for-bit.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from adq.artifacts import write_file
from adq.errors import ConfigurationError, InputError
from adq.nn.arch import KINDS, NetworkArch
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
    write_file(path, MAGIC, struct.pack("<I", len(payload)), payload, *blobs)


def load_checkpoint(path):
    """Returns (arch, state, header) with arrays restored bit-identically.

    Raises InputError naming the file when it cannot be read or is not a
    whole format-1 checkpoint: a short magic or length field, a header that
    is not a UTF-8 JSON object or lacks a key read here, a ``format`` other
    than 1, a ``step``, ``epoch`` or ``rng_seed`` that is not an integer
    >= 0, an ``ad_history`` that is not null or a list, a ``quant_state``
    that is not null or an object, a blob whose index lies outside the body
    or disagrees with its shape, an ``arch_hash`` that is not the stored
    architecture's, or ``weights``, ``m`` and ``v`` blobs that are not
    exactly each layer's parameters (``m`` and ``v``: its trainable ones) at
    the shapes the layer gives them.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path!r}: "
                         f"{exc.strerror or exc}") from None
    if data[:len(MAGIC)] != MAGIC:
        raise InputError(f"{path!r} is not a checkpoint file")

    def corrupt(why):
        return InputError(f"checkpoint {path!r} is corrupt or truncated: {why}")

    start = len(MAGIC) + 4
    if len(data) < start:
        raise corrupt("no header length")
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    if len(data) < start + hlen:
        raise corrupt(f"header of {hlen} bytes runs past the end of the file")
    try:
        header = json.loads(data[start:start + hlen].decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError included
        raise corrupt("header is not UTF-8 JSON") from None
    if not isinstance(header, dict):
        raise corrupt("header is not a JSON object")
    body = memoryview(data)[start + hlen:]
    weights, m, v = {}, {}, {}
    stores = {"weights": weights, "m": m, "v": v}
    try:
        # type(...) is int: a JSON true or 1.0 is not an integer here
        if type(header["format"]) is not int or header["format"] != 1:
            raise corrupt(f"format {header['format']!r} is not 1, the one "
                          "this code reads")
        for key in ("step", "epoch", "rng_seed"):
            if type(header[key]) is not int or header[key] < 0:
                raise corrupt(f"{key} {header[key]!r} is not an integer >= 0")
        for key, kind, name in (("ad_history", list, "a list"),
                                ("quant_state", dict, "an object")):
            if header[key] is not None and type(header[key]) is not kind:
                raise corrupt(f"{key} {header[key]!r} is not null or {name}")
        arch = NetworkArch.from_dict(header["arch"])
        if header["arch_hash"] != arch.arch_hash():
            raise corrupt(f"arch_hash {header['arch_hash']!r} is not its "
                          f"architecture's, {arch.arch_hash()!r}")
        for ent in header["blobs"]:
            group, lid, name = ent["group"], ent["layer"], ent["name"]
            shape, offset, nbytes = ent["shape"], ent["offset"], ent["nbytes"]
            count = math.prod(shape)
            if (not 0 <= offset <= offset + nbytes <= len(body)
                    or nbytes != 8 * count):
                raise corrupt(f"blob {group}/{lid}/{name} indexes bytes "
                              f"{offset}+{nbytes} of a {len(body)}-byte body "
                              f"for shape {shape}")
            arr = np.frombuffer(body, dtype="<f8", count=count,
                                offset=offset).reshape(shape).copy()
            stores[group].setdefault(lid, {})[name] = arr
        for group, store in stores.items():
            want = {(lid, name): shape
                    for lid, shapes in arch.param_shapes().items()
                    for name, shape in shapes.items()
                    if group == "weights"
                    or name in KINDS[arch.layer(lid).kind].trainable}
            got = {(lid, name): arr.shape for lid, arrs in store.items()
                   for name, arr in arrs.items()}
            for lid, name in sorted(want.keys() | got.keys(), key=repr):
                if got.get((lid, name)) != want.get((lid, name)):
                    raise corrupt(
                        f"{group} blob {name!r} of layer {lid}: "
                        f"{_shape_text(got.get((lid, name)))} stored, "
                        f"{_shape_text(want.get((lid, name)))} expected")
        rng = _decode_rng(header["rng_state"], header["rng_seed"])
        state = TrainState(weights=weights, m=m, v=v, step=header["step"],
                           epoch=header["epoch"], rng_seed=header["rng_seed"],
                           rng=rng)
    # a missing key or a value of the wrong type or range
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise corrupt(repr(exc)) from None
    return arch, state, header


def _shape_text(shape):
    return "none" if shape is None else f"shape {list(shape)}"


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
