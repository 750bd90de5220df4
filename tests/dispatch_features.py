"""Print the CPU features to put in NPY_DISABLE_CPU_FEATURES for a dispatch level.

    python tests/dispatch_features.py avx2     # X86_V4 and every AVX512* found
    python tests/dispatch_features.py x86_v2   # every feature found above X86_V2

numpy picks its ufunc kernels by the features np.show_runtime lists as
found; disabling those named here runs it at the given level.  The line is
empty when no such feature is found.  found() and at_x86_v2() tell a test
the level its own process runs at.
"""

import contextlib
import io
import platform
import re
import sys

import numpy as np


def found():
    """The SIMD features np.show_runtime lists as found: those above the
    build's baseline that this process dispatches to, less any named in
    NPY_DISABLE_CPU_FEATURES."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_runtime()
    match = re.search(r"found.: \[([^\]]*)\]", out.getvalue())
    return re.findall(r"\w+", match[1]) if match else []


def at_x86_v2():
    """Whether numpy runs at the X86_V2 level: on x86-64, where that level
    is numpy's baseline, no feature above it is found."""
    return platform.machine().lower() in ("x86_64", "amd64") and not found()


def main(argv):
    if argv not in (["avx2"], ["x86_v2"]):
        sys.exit("usage: dispatch_features.py avx2|x86_v2")
    names = found()
    if argv == ["avx2"]:
        names = [n for n in names if n == "X86_V4" or n.startswith("AVX512")]
    print(" ".join(names))


if __name__ == "__main__":
    main(sys.argv[1:])
