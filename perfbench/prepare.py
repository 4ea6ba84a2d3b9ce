"""Benchmark set-up: generate the inputs and train the setup encoder.

    python3 perfbench/prepare.py --seed N --out DIR --src SRC_DIR

Writes into DIR, all from the seed:
  raw.ndjson                       raw curvy sketches (preprocess input)
  chairs.ndjson                    labelled chairs (eval-seg input)
  vae_mid.json, encoder.json       VAE configs (train-vae --config)
  pre/preprocessed.ndjson          raw.ndjson after `strokeseg preprocess`
  encoder/checkpoints/final.npz    small VAE trained one epoch on pre/

The run script times this whole program, start to exit, as one set-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import inputs
import sizes


def prepare(seed: int, out: Path, cli_main) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    inputs.write_ndjson(out / "raw.ndjson", inputs.raw_sketches(sizes.RAW_SKETCHES, rng))
    inputs.write_ndjson(out / "chairs.ndjson", inputs.annotated_chairs(sizes.CHAIRS, rng))
    (out / "vae_mid.json").write_text(json.dumps(sizes.VAE_MID, sort_keys=True) + "\n")
    (out / "encoder.json").write_text(json.dumps(sizes.ENCODER, sort_keys=True) + "\n")
    steps = [
        ["preprocess", "--data", str(out / "raw.ndjson"), "--seed", str(seed),
         "--out", str(out / "pre")],
        ["train-vae", "--data", str(out / "pre" / "preprocessed.ndjson"),
         "--config", str(out / "encoder.json"), "--epochs", "1",
         "--seed", str(seed), "--out", str(out / "encoder")],
    ]
    for argv in steps:
        code = cli_main(argv)
        if code != 0:
            raise SystemExit(f"set-up step {argv[0]} exited with {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the strokeseg package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from strokeseg.cli import main as cli_main
    prepare(args.seed, Path(args.out), cli_main)
    return 0


if __name__ == "__main__":
    sys.exit(main())
