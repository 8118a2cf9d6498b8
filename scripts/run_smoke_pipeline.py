#!/usr/bin/env python3
"""End-to-end demo: synthesize a corpus, train the toy joint model, decode,
score, then repeat decoding on a noise-augmented copy of the corpus to show
how SNR affects end-to-end slot/intent quality.

Usage: python scripts/run_smoke_pipeline.py [--out DIR] [--skip-noise]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from slu.cli import main as slu
from slu.synth import write_corpus, write_noise_dir, write_train_config


def run(*argv) -> None:
    print(f"$ slu {' '.join(argv)}")
    code = slu(list(argv))
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="smoke_run")
    parser.add_argument("--size", type=int, default=50)
    parser.add_argument("--skip-noise", action="store_true")
    args = parser.parse_args()

    out = Path(args.out)
    started = time.time()
    paths = write_corpus(out / "corpus", args.size, seed=7)
    config_path = out / "corpus" / "train_config.json"
    write_train_config(config_path)
    config = json.loads(config_path.read_text())
    config["asr_vocab"] = "vocab_asr.txt"
    config["nlu_vocab"] = "vocab_nlu.txt"
    config_path.write_text(json.dumps(config, indent=2))

    ckpt = out / "ckpt.json"
    run("train-toy", "--config", str(config_path), "--manifest", str(paths.manifest),
        "--out", str(ckpt))
    run("decode", "--ckpt", str(ckpt), "--manifest", str(paths.manifest),
        "--out", str(out / "hyp_clean.jsonl"))
    run("score", "--refs", str(paths.manifest), "--hyps", str(out / "hyp_clean.jsonl"),
        "--metrics", "wer,slots-edit-f1,intent-f1", "--out", str(out / "report_clean.json"))

    if not args.skip_noise:
        noise_dir = write_noise_dir(out / "noise", count=12, seed=3)
        run("augment", "--manifest", str(paths.manifest), "--noise-dir", str(noise_dir),
            "--split", "test", "--snr", "0,10,20,30,40", "--seed", "17",
            "--out", str(out / "noisy"))
        run("decode", "--ckpt", str(ckpt), "--manifest", str(out / "noisy" / "manifest.jsonl"),
            "--out", str(out / "hyp_noisy.jsonl"))
        # references for the noisy copies: same labels, five entries per source
        noisy_refs = out / "noisy" / "manifest.jsonl"
        run("score", "--refs", str(noisy_refs), "--hyps", str(out / "hyp_noisy.jsonl"),
            "--metrics", "wer,slots-edit-f1,intent-f1", "--out", str(out / "report_noisy.json"))
        clean = json.loads((out / "report_clean.json").read_text())
        noisy = json.loads((out / "report_noisy.json").read_text())
        # both decode the training corpus; only the noise is held out
        print("\nclean train set:  wer %.4f  slots edit F1 %.4f  intent F1 %.4f" % (
            clean["wer"], clean["slots_edit_f1"]["f1"], clean["intent_f1"]))
        print("noisy train set:  wer %.4f  slots edit F1 %.4f  intent F1 %.4f" % (
            noisy["wer"], noisy["slots_edit_f1"]["f1"], noisy["intent_f1"]))
    print(f"\ndone in {time.time() - started:.1f}s; artifacts under {out}/")


if __name__ == "__main__":
    main()
