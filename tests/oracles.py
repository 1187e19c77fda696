"""Independent reference implementations used by the test suite.

These deliberately avoid the library's own decoding/matching code paths so
they can serve as oracles.
"""

import numpy as np

from groupdecay.corpus import entity_type, shape_class
from groupdecay.partition import N_SHAPES, PartitionKind
from groupdecay.scoring import Phrase


def brute_force_phrases(tags, sentence_id=0):
    """Phrase decoding by maximal same-type runs, split before every B tag."""
    phrases = []
    i = 0
    n = len(tags)
    while i < n:
        if tags[i] == "O":
            i += 1
            continue
        etype = tags[i].split("-", 1)[1]
        j = i + 1
        while j < n and tags[j] == f"I-{etype}":
            j += 1
        phrases.append(Phrase(sentence_id, i, j - 1, etype))
        i = j
    return phrases


def brute_force_match_counts(gold_tags_by_sentence, pred_tags_by_sentence):
    """Exact phrase-match counting via set intersection of tuples."""
    gold = {
        (i, p.start, p.end, p.type)
        for i, tags in gold_tags_by_sentence.items()
        for p in brute_force_phrases(tags, i)
    }
    pred = {
        (i, p.start, p.end, p.type)
        for i, tags in pred_tags_by_sentence.items()
        for p in brute_force_phrases(tags, i)
    }
    return len(gold), len(pred), len(gold & pred)


# -- per-sentence group contributions ---------------------------------------
#
# The computations below are the per-sentence loops the library ran before it
# built a group index once per run.  The index must reproduce them bit for bit.


def per_sentence_token_group_ids(partition, sentence, table):
    """Group id of every token, one surface at a time."""
    if partition.identity_vocab is not None:
        vocab = {w: i for i, w in enumerate(partition.identity_vocab)}
        return np.asarray([vocab[t.surface] for t in sentence.tokens], dtype=np.intp)
    out = np.empty(len(sentence), dtype=np.intp)
    for i, tok in enumerate(sentence.tokens):
        vec = table.get(tok.surface)
        top = int(np.argmin(np.sum((partition.word_centers - vec) ** 2, axis=1)))
        if partition.kind == PartitionKind.WORD:
            subs = partition.sub_centers[top]
            sub = int(np.argmin(np.sum((subs - vec) ** 2, axis=1)))
            out[i] = top * partition.sub_slots + sub
        elif partition.kind == PartitionKind.WORD_SHAPE:
            out[i] = top * N_SHAPES + int(shape_class(tok.surface))
        else:
            sent_group = int(np.argmax(partition.sentence_group_scores(sentence, table)))
            out[i] = top * partition.sentence_centers.shape[0] + sent_group
    return out


def per_sentence_delta(partition, sentence, table):
    if partition.soft:
        memb = partition.sentence_membership(sentence, table)
        return np.arange(partition.n_groups, dtype=np.intp), memb * len(sentence)
    gids = per_sentence_token_group_ids(partition, sentence, table)
    uniq, counts = np.unique(gids, return_counts=True)
    return uniq, counts.astype(np.float64)


def per_sentence_mass(partition, sentences, table):
    masses = np.zeros(partition.n_groups, dtype=np.float64)
    for s in sentences:
        if partition.soft:
            masses += partition.sentence_membership(s, table) * len(s)
        else:
            gids = per_sentence_token_group_ids(partition, s, table)
            masses += np.bincount(gids, minlength=partition.n_groups)
    return masses


def _token_losses(first, second, class_weights):
    mism = np.asarray([a != b for a, b in zip(first, second)], dtype=np.float64)
    if class_weights is None:
        return mism
    w = np.asarray(
        [
            0.5 * (class_weights[entity_type(a)] + class_weights[entity_type(b)])
            for a, b in zip(first, second)
        ]
    )
    return mism * w


def per_sentence_rates(partition, sentences, first, second, table, class_weights=None):
    """Per-group mismatch rate and mass of two labelings keyed by sentence
    id: the loop ``group_error`` (gold vs predictions) and
    ``prediction_difference_rates`` (two checkpoints, no class weights)
    both ran."""
    err = np.zeros(partition.n_groups, dtype=np.float64)
    mass = np.zeros(partition.n_groups, dtype=np.float64)
    for s in sentences:
        losses = _token_losses(first[s.id], second[s.id], class_weights)
        if partition.soft:
            memb = partition.sentence_membership(s, table)
            err += memb * losses.sum()
            mass += memb * len(s)
        else:
            gids = per_sentence_token_group_ids(partition, s, table)
            np.add.at(err, gids, losses)
            mass += np.bincount(gids, minlength=partition.n_groups)
    rates = np.zeros_like(err)
    np.divide(err, mass, out=rates, where=mass != 0)
    return rates, mass
