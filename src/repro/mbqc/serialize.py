"""Pattern and noise-model (de)serialization.

Compiled MBQC protocols are artefacts a lab would archive and replay; this
module round-trips :class:`~repro.mbqc.pattern.Pattern` objects through
plain JSON-compatible dictionaries (and strings), preserving command order,
planes, angles, and signal domains exactly.  Noise is part of the replayed
artifact too: :func:`noise_model_to_dict` / :func:`noise_model_from_dict`
round-trip a :class:`~repro.mbqc.channels.ChannelNoiseModel` (Kraus
operators as nested ``[re, im]`` pairs), so an archived pattern + model
pair re-lowers to the identical ``ChannelOp`` stream.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

import numpy as np

from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.pattern import (
    CommandC,
    CommandE,
    CommandM,
    CommandN,
    CommandX,
    CommandZ,
    Pattern,
    PatternError,
)


def pattern_to_dict(pattern: Pattern) -> Dict[str, Any]:
    """Plain-data representation (JSON-compatible)."""
    commands: List[Dict[str, Any]] = []
    for cmd in pattern.commands:
        if isinstance(cmd, CommandN):
            commands.append({"op": "N", "node": cmd.node, "state": cmd.state})
        elif isinstance(cmd, CommandE):
            commands.append({"op": "E", "nodes": list(cmd.nodes)})
        elif isinstance(cmd, CommandM):
            commands.append(
                {
                    "op": "M",
                    "node": cmd.node,
                    "plane": cmd.plane,
                    "angle": cmd.angle,
                    "s_domain": sorted(cmd.s_domain),
                    "t_domain": sorted(cmd.t_domain),
                }
            )
        elif isinstance(cmd, CommandX):
            commands.append({"op": "X", "node": cmd.node, "domain": sorted(cmd.domain)})
        elif isinstance(cmd, CommandZ):
            commands.append({"op": "Z", "node": cmd.node, "domain": sorted(cmd.domain)})
        elif isinstance(cmd, CommandC):
            commands.append({"op": "C", "node": cmd.node, "gate": cmd.gate})
        else:  # pragma: no cover - defensive
            raise PatternError(f"unknown command {cmd!r}")
    return {
        "version": 1,
        "input_nodes": list(pattern.input_nodes),
        "output_nodes": list(pattern.output_nodes),
        "commands": commands,
    }


def pattern_from_dict(data: Dict[str, Any]) -> Pattern:
    """Inverse of :func:`pattern_to_dict`; validates the result."""
    if data.get("version") != 1:
        raise PatternError(f"unsupported pattern format version {data.get('version')!r}")
    pattern = Pattern(
        input_nodes=list(data["input_nodes"]),
        output_nodes=list(data["output_nodes"]),
    )
    for rec in data["commands"]:
        op = rec["op"]
        if op == "N":
            pattern.n(int(rec["node"]), rec.get("state", "plus"))
        elif op == "E":
            u, v = rec["nodes"]
            pattern.e(int(u), int(v))
        elif op == "M":
            pattern.m(
                int(rec["node"]),
                rec.get("plane", "XY"),
                float(rec.get("angle", 0.0)),
                s_domain={int(x) for x in rec.get("s_domain", [])},
                t_domain={int(x) for x in rec.get("t_domain", [])},
            )
        elif op == "X":
            pattern.x(int(rec["node"]), {int(x) for x in rec.get("domain", [])})
        elif op == "Z":
            pattern.z(int(rec["node"]), {int(x) for x in rec.get("domain", [])})
        elif op == "C":
            pattern.c(int(rec["node"]), rec["gate"])
        else:
            raise PatternError(f"unknown command op {op!r}")
    pattern.validate()
    return pattern


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace) — the
    ``repro.serve`` cache key's byte form.  Two
    equal plain-data trees always encode to the same string, across
    processes and platforms (CPython float repr is shortest-roundtrip)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def pattern_to_json(pattern: Pattern, indent: int = 0) -> str:
    return json.dumps(pattern_to_dict(pattern), indent=indent or None)


def pattern_from_json(text: str) -> Pattern:
    return pattern_from_dict(json.loads(text))


def channel_to_dict(channel: Channel) -> Dict[str, Any]:
    """Plain-data Kraus form: complex entries become ``[re, im]`` pairs."""
    return {
        "name": channel.name,
        "kraus": [
            [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(k)]
            for k in channel.kraus
        ],
    }


def channel_from_dict(data: Dict[str, Any]) -> Channel:
    """Inverse of :func:`channel_to_dict`; re-validates the Kraus set."""
    kraus = tuple(
        np.array([[complex(re, im) for re, im in row] for row in k], dtype=complex)
        for k in data["kraus"]
    )
    return Channel(str(data.get("name", "custom")), kraus)


def noise_model_to_dict(model: ChannelNoiseModel) -> Dict[str, Any]:
    """Plain-data representation of a channel noise model."""
    return {
        "version": 1,
        "prep": channel_to_dict(model.prep) if model.prep is not None else None,
        "ent": channel_to_dict(model.ent) if model.ent is not None else None,
        "meas_flip": float(model.meas_flip),
    }


def noise_model_from_dict(data: Dict[str, Any]) -> ChannelNoiseModel:
    """Inverse of :func:`noise_model_to_dict`; validation happens in the
    :class:`~repro.mbqc.channels.ChannelNoiseModel` constructor."""
    if data.get("version") != 1:
        raise PatternError(
            f"unsupported noise model format version {data.get('version')!r}"
        )

    def load(key: str) -> Optional[Channel]:
        rec = data.get(key)
        return channel_from_dict(rec) if rec is not None else None

    return ChannelNoiseModel(
        prep=load("prep"), ent=load("ent"), meas_flip=float(data.get("meas_flip", 0.0))
    )


def noise_model_to_json(model: ChannelNoiseModel, indent: int = 0) -> str:
    return json.dumps(noise_model_to_dict(model), indent=indent or None)


def noise_model_from_json(text: str) -> ChannelNoiseModel:
    return noise_model_from_dict(json.loads(text))
