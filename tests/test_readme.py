import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_as_written():
    # the block is executed from the README text, so the documented calls
    # cannot drift from the library's signatures
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    net, spectrum, moving = namespace["net"], namespace["spectrum"], namespace["moving"]
    assert spectrum.amplitudes.shape == moving.amplitudes.shape == (1001, 2)
    assert not np.array_equal(spectrum.amplitudes, moving.amplitudes)
    (zero,) = namespace["antiresonances"](net, "cavity")
    assert (round(zero.center, 9), round(zero.half_width, 9)) == (-3.0, 3.0)
