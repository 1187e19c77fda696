"""The black-box exchange format, end to end.

Any tagger that reads a CoNLL training file plus an input file and writes
one JSON record per sentence can drive every strategy its fields enable:
labels alone suffice for rnd/div/edg_ext1, per-token log-probabilities
unlock least-confidence variants, ensembles unlock disagreement variants.
Here the built-in reference tagger plays the external role.
"""

import io

from groupdecay.corpus import parse_conll, serialize_conll
from groupdecay.simlab import SynthSpec, gen_synthetic, train_reference_tagger, tagger_predict
from groupdecay.strategies import read_records, score_bald, score_us, write_records

spec = SynthSpec(seed=2)
train = gen_synthetic(spec, 4_000, role="train", stream=0)
unlabeled = gen_synthetic(spec, 400, role="pool", stream=1)

# -- what travels over the wire ------------------------------------------
train_file = serialize_conll(train)
input_file = serialize_conll(unlabeled)
print("training file starts:")
print("\n".join(train_file.splitlines()[:4]), "\n...")

# -- the "external" side: read files, tag, write records ------------------
train_ds = parse_conll(train_file, role="train")
input_ds = parse_conll(input_file, role="input")
tagger = train_reference_tagger(train_ds)
records = tagger_predict(tagger, input_ds, want_logprobs=True, ensemble_k=5, seed=0)

wire = io.StringIO()
write_records(records.values(), wire)
payload = wire.getvalue()
print(f"\n{len(records)} records, {len(payload)} bytes; first line starts:")
print(payload.splitlines()[0][:110], "...")

# -- the harness side: read records back and score them -------------------
# the records arrive as one batch; each score is an array in batch order
received = read_records(payload)
us, bald = score_us(received), score_bald(received)
print("\nmost uncertain sentences (least-confidence score, disagreement):")
for row in sorted(range(len(received)), key=us.__getitem__, reverse=True)[:3]:
    sid = int(received.ids[row])
    surfaces = [t.surface for t in input_ds.sentences[sid].tokens]
    print(f"  sentence {sid}: us={us[row]:.3f} bald={bald[row]:.3f} tokens={surfaces[:6]}...")
