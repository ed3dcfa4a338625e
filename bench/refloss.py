"""Loss of written fit parameters, computed with the frozen package.

    python3 bench/refloss.py jobs.json

jobs.json is a list of {"params", "raw", "target", "config"} paths. Each
job's RAW is developed with its parameters exactly as one fit evaluation
does (bilinear demosaic, then `develop_linear` at the config's kernel
size) and compared with the target under the config's loss. The last line
of output is the JSON list of losses, null where a job could not be scored.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "oracle"))

from rawbench import formats, raw  # noqa: E402
from rawbench.errors import RawBenchError  # noqa: E402
from rawbench.fit import image_loss  # noqa: E402
from rawbench.isp import develop_linear  # noqa: E402


def loss(job: dict) -> float:
    config = formats.read_fit_config(job["config"])
    base = raw.demosaic_bilinear(formats.read_raw(job["raw"]))
    out = develop_linear(base, formats.read_isp_params(job["params"]),
                         kernel_size=config.kernel_size)
    return image_loss(out, formats.read_rgb(job["target"]), config.loss)


def main() -> None:
    losses = []
    for job in json.loads(Path(sys.argv[1]).read_text()):
        try:
            losses.append(loss(job))
        except (RawBenchError, ValueError, KeyError, TypeError) as exc:
            print(f"{job['params']}: {exc!r}")
            losses.append(None)
    print(json.dumps(losses))


if __name__ == "__main__":
    main()
