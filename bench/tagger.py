"""Stand-in black-box tagger for the ``external-tagger`` workload.

Usage: tagger.py TRAIN.conll INPUT.conll OUTPUT.jsonl WANT_LOGPROBS

Trains the reference tagger on the CoNLL training file, tags the input file
and writes one JSON prediction record per input sentence, keyed by the
sentence's 0-based position, with per-token log-probabilities when
WANT_LOGPROBS is 1.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from groupdecay.corpus import parse_conll  # noqa: E402
from groupdecay.simlab import ReferenceTagger, tagger_predict  # noqa: E402
from groupdecay.strategies import write_records  # noqa: E402


def main(argv: list[str]) -> int:
    train_path, input_path, output_path, want_logprobs = argv
    with open(train_path, encoding="utf-8") as fh:
        train = parse_conll(fh, role="train")
    with open(input_path, encoding="utf-8") as fh:
        data = parse_conll(fh, role="input")
    records = tagger_predict(
        ReferenceTagger(train), data, want_logprobs=bool(int(want_logprobs))
    )
    with open(output_path, "w", encoding="utf-8") as fh:
        write_records(records.values(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
