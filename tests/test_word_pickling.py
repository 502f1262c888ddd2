"""Words, and the records that hold them, pickle and copy.

`Word` and `CyclicWord` refuse attribute assignment, so they rebuild
from their spelling when unpickled or copied.  Every pickle protocol is
checked, on the words and on each record that holds one: the
replacement trace, a disconnected report and a sequence whose words
were read.  The tests need no pytest:
`PYTHONPATH=src python tests/test_word_pickling.py` runs them all.
"""

import copy
import dataclasses
import pickle

from goeritz import build_report, make_params, nonconnectivity_witness, pq_sequence
from goeritz.words import CyclicWord, Word, parse_word

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)  # 0-5 on every supported Python


def words():
    return [
        parse_word("xy^3XY"), Word(), parse_word("zy^-2z"),
        CyclicWord(parse_word("yXyyx")), CyclicWord(""), CyclicWord(parse_word("zyZ")),
    ]


def spellings(value):
    """The spelling of each word inside a value, in order."""
    if isinstance(value, (Word, CyclicWord)):
        return [value.spell()]
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    return [s for item in value for s in spellings(item)] if isinstance(value, (tuple, list)) else []


def holders():
    """Records that hold words, with the words read where they are built on demand."""
    sequence = pq_sequence(make_params(8, 3))
    assert len(sequence.words) == 9
    return [nonconnectivity_witness(make_params(12, 5)), build_report(12, 5), sequence]


def test_every_protocol_round_trips_words():
    for word in words():
        for protocol in PROTOCOLS:
            back = pickle.loads(pickle.dumps(word, protocol))
            assert type(back) is type(word) and back == word, (word, protocol)
            assert back.spell() == word.spell() and str(back) == str(word), (word, protocol)
            assert hash(back) == hash(word)


def test_words_copy_and_stay_immutable():
    for word in words():
        for copier in (copy.copy, copy.deepcopy):
            twin = copier(word)
            assert type(twin) is type(word) and twin == word and twin.spell() == word.spell()
        try:
            twin.codes = ()
        except AttributeError as exc:
            assert "is immutable" in str(exc)
        else:
            raise AssertionError("a copied word took an attribute")


def test_records_holding_words_pickle_and_copy():
    for value in holders():
        held = spellings(value)
        assert held, type(value).__name__
        for protocol in PROTOCOLS:
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value, (type(value).__name__, protocol)
            assert spellings(back) == held, (type(value).__name__, protocol)
        for copier in (copy.copy, copy.deepcopy):
            assert spellings(copier(value)) == held, (type(value).__name__, copier)
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        assert spellings(dataclasses.asdict(value)) == spellings(fields), type(value).__name__


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_"):
            test()
            print("passed", test_name)
