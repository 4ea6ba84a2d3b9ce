"""Run manifests: enough recorded state to replay any CLI command."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

__all__ = ["RunManifest", "sha256_file", "write_manifest", "read_manifest"]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """What a command ran with and what it produced.

    `argv` is the exact argument vector (minus the program name), which is
    what `rerun` replays; `timings` is informational and excluded from any
    reproducibility comparison.
    """

    command: str
    argv: list
    config: dict = field(default_factory=dict)
    input_checksums: dict = field(default_factory=dict)
    seed: int = 0
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def write_manifest(path, manifest: RunManifest) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def read_manifest(path) -> RunManifest:
    """Read a manifest that `rerun` can replay, or raise a ValueError naming `path`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not JSON: {e}") from None
    keys = sorted(f.name for f in fields(RunManifest))
    if not isinstance(data, dict) or sorted(data) != keys:
        raise ValueError(f"{path} is not a run manifest: it needs exactly the keys {keys}")
    argv = data["argv"]
    if not (isinstance(argv, list) and argv and argv[0] == data["command"]
            and all(isinstance(a, str) for a in argv)):
        raise ValueError(f"{path}: argv must be a list of strings starting with its command")
    if not isinstance(data["input_checksums"], dict):
        raise ValueError(f"{path}: input_checksums must be an object")
    return RunManifest(**data)
