"""`primitive` prints the bytes it printed when they were recorded.

For each word, every `--method` (auto, whitehead, oz, filter) with each
flag set (none, `--trace`, `--json`, `--trace --json`): sixteen calls,
pinned as their exit codes (four per method, in that order) and one
SHA-256 of [argv, stdout, stderr] over all sixteen.  The words cover
every verdict: primitive, not primitive, inconclusive (the filter),
the oz refusal of inverse letters, a word mixing x and z, a parse
error, the empty word and the benchmark's long primitive words.
"""

import contextlib
import hashlib
import io
import json

import pytest

from goeritz.cli import main

METHODS = ("auto", "whitehead", "oz", "filter")
FLAG_SETS = ((), ("--trace",), ("--json",), ("--trace", "--json"))

# The first eight primitive words of the benchmark's verify-long subjects, seed 1.
VERIFY_LONG_PRIMITIVES = (
    'xy^120xy^121',
    (
        'x^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3y'
        'x^2yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2y'
        'x^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3y'
        'x^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3y'
        'x^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3y'
        'x^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^2y'
        'x^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2y'
        'x^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3y'
        'x^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3y'
        'x^3yx^2yx^3yx^3yx^2yx^3yx^3yx^3yx^2yx^3yx^3yx^2yx^3yx^3y'
    ),
    (
        'xyx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2y'
        'x^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^'
        '2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2y'
        'x^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^'
        '2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2y'
        'x^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^'
        '2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2y'
        'xyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxy'
        'x^2yx^2yx^2yx^2yxyx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx^2yx^2yx^2yx^2yxyx'
    ),
    (
        'X^2YX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YX^2YXYX^2YXY'
        'X^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXY'
        'X^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2Y'
        'X^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2Y'
        'X^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2Y'
        'XYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YX^2YXYX^2YXYX^2YX^2YXYX^2YXYX^2YX^2Y'
        'XYX^2YXY'
    ),
    'xy^179xy^180',
    (
        'Y^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2x'
        'Y^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xYxY^2xY^2xY^2x'
        'Y^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xYxY^2xY^2xY^2x'
        'Y^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2x'
        'Y^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2x'
        'Y^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2x'
        'Y^2xY^2xYxY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2xY^2xY^2xYxY^2xY^2xY^2x'
        'Y^2xY^2xYxY^2xY^2x'
    ),
    (
        'Y^5XY^13XY^12XY^13XY^13XY^12XY^13XY^12XY^13XY^13XY^12XY^13XY^12XY^13XY^13XY^12XY^13X'
        'Y^13XY^12XY^13XY^12XY^13XY^13XY^12XY^13XY^13XY^12XY^13XY^12XY^13XY^13XY^12XY^13XY^13'
        'XY^12XY^13XY^12XY^13XY^13XY^12XY^13XY^12XY^13XY^13XY^12XY^13XY^13XY^12XY^13XY^12XY^8'
    ),
    'xy^228xy^229',
)

# word: (exit codes, SHA-256 of the sixteen calls' [argv, stdout, stderr])
RECORDED = {
    'xY^150xY^151': (
        '0000 0000 2222 4444', 'c172d4092227dc0e3d0175a43fe8e022aaf3cedd760bf53f4dddc27667fb8d2e'
    ),
    'x^2y^2': (
        '1111 1111 1111 1111', '3357b69fc6b11ff284845c5219b6efe46cd15a1003b0b83280c42d2181ff0ee5'
    ),
    'XyXy^2Xy^3': (
        '1111 1111 2222 1111', 'a3b67bc987352cffc0fd91b696360223c81a7aff2991fc06106d5a3862167602'
    ),
    'zyyzyyzy': (
        '0000 0000 0000 4444', 'c885fcb361f587255adad5e6e3f2802972a267c8a8d30e0f03401f21044aa6dc'
    ),
    'xyxY': (
        '1111 1111 2222 1111', 'f20ef96666a3fcf6f121bbd0c2720464ecdb81c1f3caa334ebfaf4384aa378e1'
    ),
    'xy': (
        '0000 0000 0000 4444', '89d15de6b5ae2b31549510e04e1223fe6263ca371cd90932698e18794846dbc5'
    ),
    '1': (
        '1111 1111 1111 4444', '0a68353d455c5c831fea5207b5b5c0b5bafba3bc93142ae95db01eba05a663a1'
    ),
    'x': (
        '0000 0000 0000 4444', '84ac24e2466daf8f815b0928f3ab74b261bc65f02e8599637242470de37d0c8c'
    ),
    '': (
        '1111 1111 1111 4444', 'db6ace08524a6a8b7f5354e11a3b710a22b9446e5a3609ec445d8be11366e5ca'
    ),
    'xY': (
        '0000 0000 2222 4444', '60bee0b76a4e92bbad84c08232c25e846d1dd403190811ff81ff97e80d72438d'
    ),
    'xz': (
        '2222 2222 2222 2222', '404503d49fbe0b31fd2d3a45e9a0daf3869c80877236af465d9cec61ac0fae16'
    ),
    'x^': (
        '2222 2222 2222 2222', 'f4d105a26cd8edd5fca15333f94bd6b47d77b4c3eee252a0c3ffc32e68acd945'
    ),
    VERIFY_LONG_PRIMITIVES[0]: (
        '0000 0000 0000 4444', '118bcdb8065643e3a1099bb1d77fc0b09b6ea8f0269b49f4857df7b8cec51d08'
    ),
    VERIFY_LONG_PRIMITIVES[1]: (
        '0000 0000 0000 4444', '09748acb990c3d7fba3e88bc3add6d95b5453b294967ac0eb96bce6050044721'
    ),
    VERIFY_LONG_PRIMITIVES[2]: (
        '0000 0000 0000 4444', '07d16a8c47c96cbb9379a3d59415fbc123c8291dc66474758350f5ceb45b4835'
    ),
    VERIFY_LONG_PRIMITIVES[3]: (
        '0000 0000 2222 4444', '80b89a36ea99d513a8089bc0af7929a0be6c4b3a008e71634ab376155190586a'
    ),
    VERIFY_LONG_PRIMITIVES[4]: (
        '0000 0000 0000 4444', 'f85842d99d5f33bfdb2698f570902d8caa1a2cc3ca8903535e5f7e6a4a75d524'
    ),
    VERIFY_LONG_PRIMITIVES[5]: (
        '0000 0000 2222 4444', '5c7ffef8f0b44d39afbfb77ffea4b92100e376c7f6597b73ba1161bc13542745'
    ),
    VERIFY_LONG_PRIMITIVES[6]: (
        '0000 0000 2222 4444', '295a15c716c7a5fcbf1856c37ccc2c34e05cc99314fdcfdc245652c156c44167'
    ),
    VERIFY_LONG_PRIMITIVES[7]: (
        '0000 0000 0000 4444', 'fb87aa5269379647062ad92aaedda2c7850460dd4ca59138f202f280747306e2'
    ),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text", list(RECORDED), ids=lambda text: text[:20] or "empty")
def test_primitive_prints_its_recorded_bytes(text):
    codes, calls = [], []
    for method in METHODS:
        argvs = [["primitive", text, "--method", method, *flags] for flags in FLAG_SETS]
        runs = [_run(argv) for argv in argvs]
        codes.append("".join(str(code) for code, _, _ in runs))
        calls += [[argv, out, err] for argv, (_, out, err) in zip(argvs, runs)]
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert (" ".join(codes), digest) == RECORDED[text]
