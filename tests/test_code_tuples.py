"""The spelled `Word` and `CyclicWord` against the code-tuple versions they replaced.

`Word` and `CyclicWord` store their spelling over xXyYzZ and are built
from a spelling.  They used to store a tuple of integer letter codes:
`_coerce_codes` read the input, `free_reduce_codes` and
`cyclic_reduce_codes` reduced it, `least_rotation` rotated it, and the
word operations below worked letter code by letter code.  Those versions
are kept here as the references, over codes, and the other tests that
build code tuples import them from here; the package side is given
`_spell(codes)`.  The package's `free_reduce_codes` and `least_rotation`
spell their codes and call the kernels that `Word` and `CyclicWord` use,
so the references keep their own stack loop and their own rotation scan
over codes.  A last test checks that the CLI's hot paths never build a
code tuple.
"""

import importlib
import pkgutil
from itertools import product

import goeritz
from goeritz import cli, words
from goeritz.words import (
    CyclicWord,
    MixedAlphabetError,
    Word,
    _caret,
    _spell,
    abelianize,
    invert,
    reverse,
    substitute,
    swap_generators,
)

# --- the code-tuple versions

_SYMBOL_CODES = {"x": 1, "y": 2, "z": 3}

# Spelled positive words ("xyz") to the characters of their codes (1, 2, 3).
_POSITIVE_CODES = str.maketrans("xyz", "\x01\x02\x03")


def _coerce_codes(letters) -> tuple[int, ...]:
    """The codes of a word, or of a sequence of letter codes as it stands."""
    if isinstance(letters, (Word, CyclicWord)):
        return letters.codes
    return tuple(letters)


def free_reduce_codes(codes) -> tuple[int, ...]:
    """Cancel adjacent mutually inverse letter codes until none remain."""
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


# The rotation order x < X < z < Z < y < Y, one key per letter code.
_ROTATION_KEY = {1: 0, -1: 1, 3: 2, -3: 3, 2: 4, -2: 5}


def least_rotation(codes: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation under the rotation order: the two-candidate scan
    of the doubled keys.  At the first difference, at offset k, of the
    rotations starting at i < j, the larger one's start moves on by k + 1."""
    n = len(codes)
    keys = [_ROTATION_KEY[c] for c in codes] * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keys[i + k], keys[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return tuple(codes[i:]) + tuple(codes[:i])


def cyclic_reduce_codes(codes: tuple[int, ...]) -> tuple[int, ...]:
    """Strip mutually inverse first/last letters of a freely reduced word."""
    i, j = 0, len(codes)
    while j - i >= 2 and codes[i] == -codes[j - 1]:
        i += 1
        j -= 1
    return codes[i:j]


def _positive_codes(spelled: str) -> tuple[int, ...]:
    """The codes of a spelled word of positive letters."""
    return tuple(map(ord, spelled.translate(_POSITIVE_CODES)))


def old_word_codes(letters) -> tuple[int, ...]:
    """What Word(letters).codes was."""
    return free_reduce_codes(_coerce_codes(letters))


def _old_like(w, codes):
    """What `CyclicWord(codes) if isinstance(w, CyclicWord) else Word(codes)`
    was, as its type and its codes."""
    codes = free_reduce_codes(codes)
    if isinstance(w, CyclicWord):
        return CyclicWord, least_rotation(cyclic_reduce_codes(codes))
    return Word, codes


def old_invert(w):
    codes = _coerce_codes(w)
    inv = tuple(-c for c in reversed(codes))
    return _old_like(w, inv)


def old_reverse(w):
    codes = _coerce_codes(w)
    rev = tuple(reversed(codes))
    return _old_like(w, rev)


def old_swap_generators(w, symbols=("z", "y")):
    a, b = (_SYMBOL_CODES[s] for s in symbols)
    codes = _coerce_codes(w)
    used = {abs(c) for c in codes}
    if not used <= {a, b}:
        raise ValueError(f"word is not over the alphabet {symbols}")
    table = {a: b, -a: -b, b: a, -b: -a}
    swapped = tuple(table[c] for c in codes)
    return _old_like(w, swapped)


def old_abelianize(w):
    first = 0
    second = 0
    bases = set()
    for c in _coerce_codes(w):
        s = 1 if c > 0 else -1
        if abs(c) == 2:
            second += s
        else:
            bases.add(abs(c))
            first += s
    if len(bases) > 1:
        raise MixedAlphabetError("word mixes x and z; no two-letter alphabet applies")
    return (first, second)


def old_substitute(w, z_image):
    image = old_word_codes(z_image)
    image_inv = tuple(-c for c in reversed(image))
    out = []
    for c in _coerce_codes(w):
        if c == 3:
            out.extend(image)
        elif c == -3:
            out.extend(image_inv)
        elif abs(c) == 2:
            out.append(c)
        else:
            raise ValueError("substitution input must be a word over z and y")
    return Word, free_reduce_codes(out)


# --- agreement


def _reduced_sequences(letters, max_len):
    """Every freely reduced sequence of up to max_len of the letter codes."""
    layer = [()]
    for _ in range(max_len + 1):
        yield from layer
        layer = [tup + (c,) for tup in layer for c in letters if not tup or tup[-1] != -c]


def _results(f, inputs, *args):
    """f(w, *args) for each w: the type and codes of a word, any other result
    as it is, and ValueError for a raised ValueError."""
    out = []
    for w in inputs:
        try:
            result = f(w, *args)
        except ValueError:
            result = ValueError
        out.append((type(result), result.codes) if isinstance(result, (Word, CyclicWord)) else result)
    return out


def _assert_agreement(inputs, symbols, image):
    """Word, CyclicWord and str of each code sequence, and the word
    operations, against the code-tuple references.

    invert, abelianize and substitute read the sequence as given (its
    spelling, for the package), reverse its CyclicWord and
    swap_generators its Word, so both result types of the
    type-preserving operations are checked.
    """
    spellings = list(map(_spell, inputs))
    words = list(map(Word, spellings))
    cyclics = list(map(CyclicWord, spellings))
    word_codes = list(map(old_word_codes, inputs))
    cyclic_codes = [least_rotation(cyclic_reduce_codes(codes)) for codes in word_codes]
    assert [word.codes for word in words] == word_codes
    assert [cyclic.codes for cyclic in cyclics] == cyclic_codes
    # str was _caret of the code tuple's spelling
    assert list(map(str, words)) == [_caret(_spell(codes)) for codes in word_codes]
    assert list(map(str, cyclics)) == [_caret(_spell(codes)) for codes in cyclic_codes]
    for new, old, form, old_form, args in (
        (invert, old_invert, spellings, inputs, ()),
        (reverse, old_reverse, cyclics, cyclics, ()),
        (swap_generators, old_swap_generators, words, words, (symbols,)),
        (abelianize, old_abelianize, spellings, inputs, ()),
        (substitute, old_substitute, spellings, inputs, (image,)),
    ):
        assert _results(new, form, *args) == _results(old, old_form, *args), new.__name__


def test_spelled_words_agree_with_the_code_tuples_over_each_alphabet():
    """Every reduced word of up to 9 letters over {x, y} and over {z, y}."""
    for letters, symbols, image in (
        ((1, -1, 2, -2), ("x", "y"), Word(_spell((1, 2)))),
        ((3, -3, 2, -2), ("z", "y"), Word(_spell((2, -3, 2, 2)))),
    ):
        _assert_agreement(list(_reduced_sequences(letters, 9)), symbols, image)


def test_spelled_words_agree_with_the_code_tuples_on_all_six_letters():
    """Every sequence of up to 6 of the six letters, reduced or not."""
    inputs = [codes for n in range(7) for codes in product((1, -1, 2, -2, 3, -3), repeat=n)]
    _assert_agreement(inputs, ("x", "y"), Word(_spell((3, -2))))


# --- the hot paths

# every module of the package, so that none can be left out
_MODULES = tuple(module.name for module in pkgutil.iter_modules(goeritz.__path__))


def test_cli_hot_paths_build_no_code_tuples(monkeypatch, capsys):
    """Words are parsed, decided and written as spellings: no free
    reduction over codes and no spelling-to-codes step runs."""
    calls = []
    modules = [goeritz, *(importlib.import_module(f"goeritz.{name}") for name in _MODULES)]
    for name in ("free_reduce_codes", "_unspell"):
        original = getattr(words, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    for argv in (
        ["primitive", "xY^200xY^201", "--json"],
        ["primitive", "--method", "whitehead", "--trace", "xy^40xy^41"],
        ["witness", "1001", "17", "--json"],
        ["sweep", "witness", "--max-p", "60", "--json"],
    ):
        assert cli.main(argv) in (0, 1), argv
        assert capsys.readouterr().out
        assert calls == [], argv
