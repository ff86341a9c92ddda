"""Regenerate reference/backbone_logits.json, the backbone_inference reference.

    PYTHONPATH=src:. python3 perfbench/make_reference.py

The stored file was made from the commit that introduced the benchmark. Only
regenerate it when a change is meant to alter the backbone's outputs, and
say so in that change.
"""

import json
from pathlib import Path

from perfbench.workloads import reference_input
from dispersionlab import model

IMAGE_SEED = 20250610

if __name__ == "__main__":
    cfg, params, image = reference_input(IMAGE_SEED)
    logits = model.forward(cfg, params, image).array
    out = Path(__file__).resolve().parent / "reference" / "backbone_logits.json"
    out.write_text(json.dumps({"image_seed": IMAGE_SEED, "config": "ModelConfig.tiny_224()",
                               "params": "init_params(cfg)", "logits": logits.tolist()}) + "\n")
    print(f"wrote {out}: {logits.shape[1]} logits, max |logit| {abs(logits).max():.6g}")
