"""Bit-exact model checkpoints: parameters, config, optimizer state, step."""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from .optim import AdamState
from .vae import VaeConfig, VaeModel

__all__ = ["save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 2  # 2: LSTM gate layer norms stored as (4, H) ln_g / ln_b


def save_checkpoint(path, model: VaeModel, adam_state: AdamState | None = None) -> None:
    """Write an npz with every parameter tensor plus metadata.

    Parameter dtypes and values round-trip exactly (no text serialization of
    floats). Optimizer moments are stored under m./v. prefixes.
    """
    meta = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "step": model.step,
        "adam_t": adam_state.t if adam_state is not None else 0,
        "param_names": sorted(model.params),
    }
    arrays = {f"param.{k}": v for k, v in model.params.items()}
    if adam_state is not None:
        arrays.update({f"adam_m.{k}": v for k, v in adam_state.m.items()})
        arrays.update({f"adam_v.{k}": v for k, v in adam_state.v.items()})
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Read a checkpoint back into (VaeModel, AdamState).

    A missing file raises OSError; a file that is not a complete, finite
    checkpoint of this format (truncated, foreign, another format version,
    lacking an entry, holding a NaN or inf in any array, or an array whose
    name or shape its config does not imply) raises one ValueError naming
    the path.
    """
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            version = meta.get("format_version")
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported checkpoint format version {version}")
            params = {k: data[f"param.{k}"].copy() for k in meta["param_names"]}
            state = AdamState(t=meta["adam_t"])
            for k in meta["param_names"]:
                if f"adam_m.{k}" in data:
                    state.m[k] = data[f"adam_m.{k}"].copy()
                    state.v[k] = data[f"adam_v.{k}"].copy()
        config = VaeConfig.from_dict(meta["config"])
        shapes = VaeModel.param_shapes(config)
        if params.keys() != shapes.keys():
            raise ValueError(f"parameters {sorted(params.keys() ^ shapes.keys())} do not "
                             f"match the config")
        for prefix, arrays in (("param", params), ("adam_m", state.m), ("adam_v", state.v)):
            for k, v in arrays.items():
                if v.shape != shapes[k]:
                    raise ValueError(f"{prefix}.{k} has shape {v.shape}, but the config "
                                     f"implies {shapes[k]}")
                if not np.isfinite(v).all():
                    raise ValueError(f"non-finite values in {prefix}.{k}")
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        reason = exc if zipfile.is_zipfile(path) else "not an npz archive"
        raise ValueError(f"cannot read checkpoint {path}: {reason}") from exc
    return VaeModel(config, params, step=meta["step"]), state
