"""Independent reference implementations used by the test suite.

These deliberately avoid the library's own decoding/matching code paths so
they can serve as oracles.
"""

import math
from typing import Mapping, Sequence

import numpy as np

from groupdecay.corpus import (
    _BIO_RE, CorpusFormatError, Dataset, Sentence, Token, entity_type, shape_class,
)
from groupdecay.decay import (
    _ACTIVE_SETS,
    DecayFit,
    DecayNumericalError,
    DecayParams,
    FitConfig,
    FitError,
    _basis,
    _matrices,
    _spec_init,
    curve_values,
)
from groupdecay.partition import (
    N_SHAPES,
    AlignmentError,
    GroupErrorRecord,
    GroupErrors,
    ParameterError,
    PartitionKind,
    aligned_labels,
    build_group_index,
)
from groupdecay.scoring import Phrase, ScoreReport
from groupdecay.selection import Batch, take_units
from groupdecay.strategies import PredictionRecord


def per_token_parse_conll(source, role="pool"):
    """CoNLL parsing as it ran before the token table: one ``Token`` per
    token, each tag checked against ``_BIO_RE`` and again by ``Token``, a
    string split by ``str.splitlines``.  Text free of the other line
    boundaries of ``splitlines`` reads as the library reads it."""
    lines = source.splitlines() if isinstance(source, str) else source
    sentences, tokens, inventory = [], [], set()
    warnings, doc_counter = 0, -1

    def flush():
        if tokens:
            doc = doc_counter if doc_counter >= 0 else None
            sentences.append(Sentence(id=len(sentences), tokens=tuple(tokens), doc_id=doc))
            tokens.clear()

    for number, line in enumerate(lines, start=1):
        stripped = line.rstrip("\n").rstrip("\r").strip()
        if not stripped:
            flush()
            continue
        cols = stripped.split()
        if cols[0].startswith("-DOCSTART-"):
            flush()
            doc_counter += 1
            continue
        tag = cols[-1] if len(cols) >= 2 else None
        if tag is not None:
            if not _BIO_RE.match(tag):
                raise CorpusFormatError(f"not a BIO tag: {tag!r}", number)
            if tag != "O":
                inventory.add(entity_type(tag))
                if tag.startswith("I-"):
                    prev = tokens[-1].gold_label if tokens else None
                    if prev is None or prev == "O" or entity_type(prev) != entity_type(tag):
                        warnings += 1
        tokens.append(Token(surface=cols[0], gold_label=tag))
    flush()
    return Dataset(tuple(sentences), frozenset(inventory), role, warnings)


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


# -- phrase F1 one tag at a time ----------------------------------------------
#
# The decoder and scorer as they ran before gold phrases were decoded once per
# run: one regex match and one ``Phrase`` per tag, and the gold phrases decoded
# again at every call.  The library must reproduce them exactly, weighted
# totals bit for bit.


def per_tag_decode_phrases(tags: Sequence[str], sentence_id: int = 0) -> list[Phrase]:
    phrases: list[Phrase] = []
    start: int | None = None
    current: str | None = None

    def close(last_index: int):
        nonlocal start, current
        if current is not None:
            phrases.append(Phrase(sentence_id, start, last_index, current))
        start, current = None, None

    for i, tag in enumerate(tags):
        if not _BIO_RE.match(tag):
            raise ValueError(f"unknown tag {tag!r} at position {i}")
        if tag == "O":
            close(i - 1)
            continue
        prefix, etype = tag.split("-", 1)
        if prefix == "B" or current != etype:
            close(i - 1)
            start, current = i, etype
    close(len(tags) - 1)
    return phrases


def per_tag_micro_f1(gold, predictions, weights=None) -> ScoreReport:
    n_gold = 0.0
    n_pred = 0.0
    n_match = 0.0
    per_type: dict[str, list[int]] = {}

    for s, pred_tags in zip(gold.sentences, aligned_labels(predictions, gold.sentences)):
        gold_phrases = per_tag_decode_phrases([t.gold_label for t in s.tokens], s.id)
        pred_phrases = per_tag_decode_phrases(list(pred_tags), s.id)
        gold_set = set(gold_phrases)
        matched = [ph for ph in pred_phrases if ph in gold_set]
        for ph in gold_phrases:
            per_type.setdefault(ph.type, [0, 0, 0])[0] += 1
        for ph in pred_phrases:
            per_type.setdefault(ph.type, [0, 0, 0])[1] += 1
        for ph in matched:
            per_type.setdefault(ph.type, [0, 0, 0])[2] += 1

        def wt(ph: Phrase) -> float:
            return 1.0 if weights is None else float(weights[ph.type])

        n_gold += sum(wt(ph) for ph in gold_phrases)
        n_pred += sum(wt(ph) for ph in pred_phrases)
        n_match += sum(wt(ph) for ph in matched)

    precision = n_match / n_pred if n_pred > 0 else 0.0
    recall = n_match / n_gold if n_gold > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ScoreReport(
        precision=precision,
        recall=recall,
        f1=f1,
        n_gold=n_gold,
        n_predicted=n_pred,
        n_matched=n_match,
        per_type={t: tuple(v) for t, v in sorted(per_type.items())},
        weights=dict(weights) if weights is not None else None,
    )


# -- per-unit partition views ------------------------------------------------
#
# Views ``Partition`` offered before it moved them here: no library code reads
# them, and the tests use them to name a unit's groups.


def token_group_ids(partition, sentence, table):
    """Hard group id of every token of one sentence (word-unit kinds), read
    from a one-sentence group index."""
    if partition.soft:
        raise ParameterError("token_group_ids requires a word-unit partition")
    return build_group_index(partition, [sentence], table).gids


def membership(partition, unit, table=None):
    """Probability vector over groups for one unit: a Sentence for the soft
    partition, a (sentence, token index) pair (one-hot) for a hard one."""
    if partition.soft:
        return partition.sentence_membership(unit, table)
    sentence, index = unit
    vec = np.zeros(partition.n_groups, dtype=np.float64)
    vec[token_group_ids(partition, sentence, table)[index]] = 1.0
    return vec


# -- distances and sentence embeddings ---------------------------------------
#
# The one-expression forms the library computed before it blocked distances
# by rows and embedded all sentences of a sequence in one matrix.  Its
# results must equal these bit for bit.


def one_expression_sq_dists(centers, X):
    """Squared distance of every row of X to every center, (n, k), as one
    broadcast expression."""
    return ((centers[None, :, :] - X[:, None, :]) ** 2).sum(axis=2)


def loop_sentence_embedding(sentence, table):
    """Unweighted mean of the token vectors: a running sum in token order,
    then one division by the length."""
    acc = np.zeros(table.dim, dtype=np.float64)
    for token in sentence.tokens:
        acc += table.get(token.surface)
    return acc / len(sentence)


def stacked_sentence_embeddings(sentences, table):
    """One :func:`loop_sentence_embedding` row per sentence."""
    if not sentences:
        return np.zeros((0, table.dim), dtype=np.float64)
    return np.stack([loop_sentence_embedding(s, table) for s in sentences])


def per_sentence_scores(partition, sentence, table):
    """Cosine of one sentence's embedding to every sentence center (0 where
    either norm is 0)."""
    emb = loop_sentence_embedding(sentence, table)
    centers = partition.sentence_centers
    norms = np.linalg.norm(centers, axis=1) * np.linalg.norm(emb)
    out = np.zeros(centers.shape[0], dtype=np.float64)
    ok = norms > 0
    out[ok] = (centers[ok] @ emb) / norms[ok]
    return out


def per_sentence_membership(partition, sentence, table):
    """Temperature softmax of :func:`per_sentence_scores`."""
    z = per_sentence_scores(partition, sentence, table) / partition.temperature
    e = np.exp(z - z.max())
    return e / e.sum()


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
            sent_group = int(np.argmax(per_sentence_scores(partition, sentence, table)))
            out[i] = top * partition.sentence_centers.shape[0] + sent_group
    return out


def per_sentence_delta(partition, sentence, table):
    if partition.soft:
        memb = per_sentence_membership(partition, sentence, table)
        return np.arange(partition.n_groups, dtype=np.intp), memb * len(sentence)
    gids = per_sentence_token_group_ids(partition, sentence, table)
    uniq, counts = np.unique(gids, return_counts=True)
    return uniq, counts.astype(np.float64)


def per_sentence_mass(partition, sentences, table):
    masses = np.zeros(partition.n_groups, dtype=np.float64)
    for s in sentences:
        if partition.soft:
            masses += per_sentence_membership(partition, s, table) * len(s)
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


def string_mismatch_rates(index, first, second, class_weights=None):
    """Per-group mismatch rates of two labelings given as tag strings, one
    sequence per index row, flattened and compared token by token."""
    a = [t for tags in first for t in tags]
    b = [t for tags in second for t in tags]
    if not len(a) == len(b) == index.offsets[-1]:
        raise AlignmentError(f"labelings of {len(a)} and {len(b)} for {index.offsets[-1]} tokens")
    err = index.token_sums(_token_losses(a, b, class_weights))
    mass = index.mass()
    rate = np.zeros_like(err)
    np.divide(err, mass, out=rate, where=mass != 0)
    return GroupErrors(error=rate, mass=mass)


def string_prediction_difference_records(reference, prediction_history, train_mass_history,
                                         index):
    """One partition's prediction-difference records from id-keyed tag
    strings, each past checkpoint aligned and compared with the last."""
    if len(prediction_history) != len(train_mass_history):
        raise ValueError("prediction and mass histories differ in length")
    if len(prediction_history) < 2:
        raise ValueError("need at least 2 checkpoints of predictions")
    sentences = list(reference)
    current = aligned_labels(prediction_history[-1], sentences)
    records = []
    for t in range(len(prediction_history) - 1):
        rates = string_mismatch_rates(
            index, current, aligned_labels(prediction_history[t], sentences)
        )
        records.append(
            GroupErrorRecord(
                checkpoint_index=t,
                train_mass=np.asarray(train_mass_history[t], dtype=np.float64),
                val_error=rates.error,
                val_mass=rates.mass,
            )
        )
    return records


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
            memb = per_sentence_membership(partition, s, table)
            err += memb * losses.sum()
            mass += memb * len(s)
        else:
            gids = per_sentence_token_group_ids(partition, s, table)
            np.add.at(err, gids, losses)
            mass += np.bincount(gids, minlength=partition.n_groups)
    rates = np.zeros_like(err)
    np.divide(err, mass, out=rates, where=mass != 0)
    return rates, mass


# -- per-sentence reference tagger -------------------------------------------
#
# The reference tagger as it ran before it was fitted and scored over one flat
# token array: count tables and scores built one sentence at a time, bootstrap
# ensemble members retrained on rebuilt datasets, and pseudo labels relabeled
# through a rebuilt dataset every round.  The library must reproduce them bit
# for bit.

_PAD = "\x00pad"
_OFFSETS = (-2, -1, 1, 2)


class PerSentenceTagger:
    """Count tables and scores of the reference tagger, sentence by sentence."""

    def __init__(self, train, smoothing_alpha=1.0):
        self.smoothing_alpha = float(smoothing_alpha)
        self.train_sentences = train.sentences
        labels = sorted({t.gold_label for s in train.sentences for t in s.tokens})
        self.labels = tuple(labels)
        self.label_index = {l: i for i, l in enumerate(labels)}
        surfaces = sorted({t.surface for s in train.sentences for t in s.tokens})
        self.surface_index = {w: i for i, w in enumerate(surfaces)}
        self.surface_index[_PAD] = len(surfaces)
        self.vocab_size = len(self.surface_index)
        self._count(train)
        a = self.smoothing_alpha
        unseen = np.full((1, len(self.labels)), math.log(a))
        self._log_token = np.vstack([np.log(self.token_counts + a), unseen])
        self._log_ctx = [np.vstack([np.log(c + a), unseen]) for c in self.context_counts]
        self._log_denom = np.log(self.label_totals + a * self.vocab_size)

    def _count(self, train):
        L = len(self.labels)
        V = self.vocab_size
        self.token_counts = np.zeros((V, L), dtype=np.float64)
        self.context_counts = [np.zeros((V, L), dtype=np.float64) for _ in _OFFSETS]
        pad = self.surface_index[_PAD]
        tok_rows, lab_rows = [], []
        ctx_rows = [[] for _ in _OFFSETS]
        for s in train.sentences:
            sidx = np.asarray([self.surface_index[t.surface] for t in s.tokens])
            lidx = np.asarray([self.label_index[t.gold_label] for t in s.tokens])
            n = len(sidx)
            tok_rows.append(sidx)
            lab_rows.append(lidx)
            pos = np.arange(n)
            for k, off in enumerate(_OFFSETS):
                q = pos + off
                ctx_rows[k].append(
                    np.where((q >= 0) & (q < n), sidx[np.clip(q, 0, n - 1)], pad)
                )
        tok = np.concatenate(tok_rows)
        lab = np.concatenate(lab_rows)
        np.add.at(self.token_counts, (tok, lab), 1.0)
        self.label_totals = np.bincount(lab, minlength=L).astype(np.float64)
        for k in range(len(_OFFSETS)):
            np.add.at(self.context_counts[k], (np.concatenate(ctx_rows[k]), lab), 1.0)

    def scores(self, sentences):
        unseen = self.vocab_size
        pad = self.surface_index[_PAD]
        out = []
        for s in sentences:
            rows = np.asarray(
                [self.surface_index.get(t.surface, unseen) for t in s.tokens],
                dtype=np.intp,
            )
            n = len(rows)
            score = self._log_token[rows] - 4.0 * self._log_denom[None, :]
            for k, off in enumerate(_OFFSETS):
                q = np.arange(n) + off
                ctx = np.where((q >= 0) & (q < n), rows[np.clip(q, 0, n - 1)], pad)
                score = score + self._log_ctx[k][ctx]
            z = score.max(axis=1, keepdims=True)
            logz = z + np.log(np.exp(score - z).sum(axis=1, keepdims=True))
            out.append(score - logz)
        return out

    def predict_labels(self, sentences):
        return [
            [self.labels[i] for i in np.argmax(m, axis=1)] for m in self.scores(sentences)
        ]


def per_sentence_predict(tagger, sentences, want_logprobs=False, ensemble_k=None, seed=0):
    """Prediction records of ``tagger`` (a ``PerSentenceTagger``); each
    ensemble member is retrained on a rebuilt bootstrap dataset."""
    matrices = tagger.scores(sentences)
    ensemble_labels = None
    if ensemble_k is not None:
        ensemble_labels = []
        base = tagger.train_sentences
        for k in range(ensemble_k):
            rng = np.random.default_rng([seed, 71, k])
            idx = rng.integers(0, len(base), size=len(base))
            boot = Dataset(
                sentences=tuple(
                    Sentence(id=i, tokens=base[j].tokens) for i, j in enumerate(idx)
                ),
                label_inventory=frozenset(),
                role="train",
            )
            member = PerSentenceTagger(boot, tagger.smoothing_alpha)
            ensemble_labels.append(member.predict_labels(sentences))
    records = {}
    for i, (s, m) in enumerate(zip(sentences, matrices)):
        labels = tuple(tagger.labels[j] for j in np.argmax(m, axis=1))
        logprobs = None
        if want_logprobs:
            logprobs = tuple(
                {tag: float(m[l, j]) for j, tag in enumerate(tagger.labels)}
                for l in range(len(s))
            )
        ensemble = None
        if ensemble_labels is not None:
            ensemble = tuple(tuple(member[i]) for member in ensemble_labels)
        records[s.id] = PredictionRecord(
            sentence_id=s.id, labels=labels, logprobs=logprobs, ensemble=ensemble
        )
    return records


def dict_tagger_predict(tagger, dataset, want_logprobs=False, ensemble_k=None, seed=0):
    """``simlab.tagger_predict`` as it ran before prediction batches: a dict
    of records, one log-prob dict per token, and each ensemble member a
    ``ReferenceTagger`` fitted on name lists that tags by label names."""
    import itertools

    from groupdecay.simlab import ReferenceTagger, _flatten, _spans

    sentences = list(dataset)
    surfaces, lengths = _flatten(sentences)
    flat = tagger._log_probs(tagger._rows(surfaces), lengths)
    labels = [tagger.labels[i] for i in flat.argmax(axis=1).tolist()]
    vocab = sorted(tagger.surface_index, key=tagger.surface_index.__getitem__)
    rows, label_ids, train_lengths = tagger._train
    train_surfaces = [vocab[r] for r in rows.tolist()]
    train_tags = [tagger.labels[i] for i in label_ids.tolist()]
    members = []
    if ensemble_k is not None:
        n = len(train_lengths)
        for k in range(ensemble_k):
            rng = np.random.default_rng([seed, 71, k])
            draws = np.bincount(rng.integers(0, n, size=n), minlength=n)
            drawn = np.repeat(draws > 0, train_lengths)
            member = object.__new__(ReferenceTagger)
            member._fit(
                list(itertools.compress(train_surfaces, drawn)),
                list(itertools.compress(train_tags, drawn)),
                train_lengths[draws > 0],
                tagger.smoothing_alpha,
                np.repeat(draws, train_lengths)[drawn],
            )
            members.append(member._label_names(surfaces, lengths))
    records = {}
    for s, (a, b) in zip(sentences, _spans(lengths)):
        logprobs = None
        if want_logprobs:
            logprobs = tuple(dict(zip(tagger.labels, row)) for row in flat[a:b].tolist())
        ensemble = tuple(tuple(member[a:b]) for member in members) if members else None
        records[s.id] = PredictionRecord(
            sentence_id=s.id, labels=tuple(labels[a:b]), logprobs=logprobs, ensemble=ensemble
        )
    return records


def record_score_us(record):
    """Least confidence of one record, as scored before prediction batches:
    the sum of each token's best log-probability, negated, over the length.
    The sum adds left to right from 0.0, as CPython 3.11's ``sum`` did
    (later versions compensate)."""
    total = 0.0
    for lp in record.logprobs:
        total += max(lp.values())
    return -total / len(record.labels)


def record_score_bald(record):
    """Ensemble disagreement of one record, as scored before prediction
    batches: a count dict per token."""
    K = len(record.ensemble)
    total = 0.0
    for l in range(len(record.labels)):
        counts = {}
        for pass_tags in record.ensemble:
            counts[pass_tags[l]] = counts.get(pass_tags[l], 0) + 1
        top = max(counts.values())
        mode = min(t for t, n in counts.items() if n == top)
        total += (K - counts[mode]) / K
    return total / len(record.labels)


def copying_write_records(records, fh):
    """``write_records`` as it ran before: each token's log-prob dict copied
    in key order, then the whole payload dumped with sorted keys."""
    import json

    for r in records:
        payload = {"sentence_id": r.sentence_id, "labels": list(r.labels)}
        if r.logprobs is not None:
            payload["logprobs"] = [dict(sorted(lp.items())) for lp in r.logprobs]
        if r.ensemble is not None:
            payload["ensemble"] = [list(p) for p in r.ensemble]
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _relabeled(dataset, label_lists):
    sentences = tuple(
        Sentence(
            id=s.id,
            tokens=tuple(Token(t.surface, l) for t, l in zip(s.tokens, labels)),
            doc_id=s.doc_id,
        )
        for s, labels in zip(dataset.sentences, label_lists)
    )
    return Dataset(sentences, dataset.label_inventory, dataset.role)


def per_round_pseudo_labels(full_gold_train, pool_inputs, smoothing_alpha=1.0):
    """Fixed-point pseudo labels of the pool, retraining on a rebuilt dataset
    every round; ``None`` when 100 rounds reach no fixed point."""
    sentences = pool_inputs.sentences
    labels = PerSentenceTagger(full_gold_train, smoothing_alpha).predict_labels(sentences)
    for _ in range(100):
        oracle = PerSentenceTagger(_relabeled(pool_inputs, labels), smoothing_alpha)
        relabeled = oracle.predict_labels(sentences)
        if relabeled == labels:
            return labels
        labels = relabeled
    return None


# -- per-mask active-set solve ------------------------------------------------
#
# The shared-coefficient solve of the decay fit as it ran before the KKT
# systems were stacked by active-set size: one solve per mask, in mask order.
# The library must reproduce it bit for bit.


def per_mask_solve_a(phi, Y, W, b, c, current):
    X = phi * b[None, None, :]  # (4, T, J)
    r = Y - c[None, :]
    WX = W[None, :, :] * X
    G = np.einsum("ptj,qtj->pq", WX, X)
    h = np.einsum("ptj,tj->p", WX, r)
    base = float(np.sum(W * r * r))

    def quad(a):
        return base - 2.0 * float(a @ h) + float(a @ G @ a)

    best = current.copy()
    best_obj = quad(current)
    for mask in range(16):
        free = [i for i in range(4) if mask >> i & 1]
        a = np.zeros(4)
        if free:
            Gs = G[np.ix_(free, free)]
            hs = h[free]
            try:
                sol = np.linalg.solve(Gs, hs)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(Gs, hs, rcond=None)
            if np.any(sol < 0) or not np.all(np.isfinite(sol)):
                continue
            a[free] = sol
        obj = quad(a)
        if obj < best_obj:
            best_obj, best = obj, a
    return best


# -- per-start decay fit --------------------------------------------------------
#
# ``decay.fit`` as it ran before its restarts were stacked on a leading start
# axis: each start runs to convergence (or ``max_outer``) before the next one
# begins, and the first non-finite objective raises at once.  The library
# must reproduce its DecayFit, and the error it raises, bit for bit.


def per_start_solve_bc(psi, Y, W):
    sw = W.sum(axis=0)
    sp = (W * psi).sum(axis=0)
    spp = (W * psi * psi).sum(axis=0)
    sy = (W * Y).sum(axis=0)
    spy = (W * psi * Y).sum(axis=0)

    tiny = 1e-300

    def obj(bv, cv):
        return spp * bv**2 + sw * cv**2 + 2 * sp * bv * cv - 2 * spy * bv - 2 * sy * cv

    det = spp * sw - sp * sp
    safe_det = np.where(np.abs(det) > tiny, det, 1.0)
    b_unc = np.where(np.abs(det) > tiny, (spy * sw - sy * sp) / safe_det, -1.0)
    c_unc = np.where(np.abs(det) > tiny, (sy * spp - spy * sp) / safe_det, -1.0)

    c_only = np.where(sw > tiny, np.maximum(0.0, sy / np.where(sw > tiny, sw, 1.0)), 0.0)
    b_only = np.where(spp > tiny, np.maximum(0.0, spy / np.where(spp > tiny, spp, 1.0)), 0.0)

    cand_b = np.stack([b_unc, np.zeros_like(sw), b_only, np.zeros_like(sw)])
    cand_c = np.stack([c_unc, c_only, np.zeros_like(sw), np.zeros_like(sw)])
    cand_obj = obj(cand_b, cand_c)
    cand_obj[0] = np.where((b_unc >= 0) & (c_unc >= 0), cand_obj[0], np.inf)

    pick = np.argmin(cand_obj, axis=0)
    cols = np.arange(sw.size)
    b = cand_b[pick, cols]
    c = cand_c[pick, cols]
    dead = sw <= tiny  # excluded groups (zero total weight)
    b[dead] = 0.0
    c[dead] = 0.0
    return b, c


def per_start_solve_a(phi, Y, W, b, c, current):
    X = phi * b[None, None, :]  # (4, T, J)
    r = Y - c[None, :]
    WX = W[None, :, :] * X
    G = np.einsum("ptj,qtj->pq", WX, X)
    h = np.einsum("ptj,tj->p", WX, r)
    base = float(np.sum(W * r * r))

    def quad(a):
        return base - 2.0 * float(a @ h) + float(a @ G @ a)

    cand = np.zeros((15, 4))
    for rows, free in _ACTIVE_SETS:
        Gs = G[free[:, :, None], free[:, None, :]]
        hs = h[free][:, :, None]
        try:
            sol = np.linalg.solve(Gs, hs)[:, :, 0]
        except np.linalg.LinAlgError:
            sol = np.empty(free.shape)
            for i in range(len(free)):
                try:
                    sol[i] = np.linalg.solve(Gs[i], hs[i, :, 0])
                except np.linalg.LinAlgError:
                    sol[i], *_ = np.linalg.lstsq(Gs[i], hs[i, :, 0], rcond=None)
        cand[rows[:, None], free] = sol
    feasible = np.all((cand >= 0) & np.isfinite(cand), axis=1)

    best = current.copy()
    best_obj = quad(current)
    for a in (np.zeros(4), *cand[feasible]):
        obj = quad(a)
        if obj < best_obj:
            best_obj, best = obj, a
    return best


def per_start_fit(history, weights=None, config=None):
    if len(history) < 2:
        raise FitError(f"need at least 2 checkpoints, got {len(history)}")
    cfg = config or FitConfig()
    N, Y, W = _matrices(history, weights)
    J = N.shape[1]
    if not np.any(W > 0):
        raise FitError("all groups have zero weight")

    phi = np.stack(_basis(1.0, N))  # (4, T, J)
    if not np.all(np.isfinite(phi)) or not np.all(np.isfinite(Y)):
        bad = ~np.all(np.isfinite(Y), axis=0) if np.any(~np.isfinite(Y)) else ~np.all(
            np.isfinite(phi), axis=(0, 1)
        )
        raise DecayNumericalError(int(np.flatnonzero(bad)[0]))

    def reduced_objective(psi, b, c):
        e = c[None, :] + b[None, :] * psi
        per_group = np.sum(W * (e - Y) ** 2, axis=0)
        if not np.all(np.isfinite(per_group)):
            raise DecayNumericalError(int(np.flatnonzero(~np.isfinite(per_group))[0]))
        return float(per_group.sum())

    a_init, b_init, c_init = _spec_init(N, Y, W)
    rng = np.random.default_rng(cfg.seed)

    best = None
    best_obj = np.inf
    best_trace = []
    best_converged = False
    start_objs = []

    for start in range(cfg.restarts):
        a_bar, b, c = a_init.copy(), b_init.copy(), c_init.copy()
        if start > 0:
            a_bar *= np.exp(rng.normal(0.0, 1.0, size=4))
            b *= np.exp(rng.normal(0.0, 0.5, size=J))
            c *= np.exp(rng.normal(0.0, 0.5, size=J))
        psi = np.tensordot(a_bar, phi, axes=1)
        obj = reduced_objective(psi, b, c)
        start_objs.append(obj)
        trace = [obj]
        converged = False
        for _ in range(cfg.max_outer):
            b, c = per_start_solve_bc(psi, Y, W)
            a_bar = per_start_solve_a(phi, Y, W, b, c, a_bar)
            psi = np.tensordot(a_bar, phi, axes=1)
            obj_new = reduced_objective(psi, b, c)
            trace.append(obj_new)
            if obj - obj_new <= cfg.rel_tol * max(obj, 1e-12):
                converged = True
                obj = obj_new
                break
            obj = obj_new
        b, c = per_start_solve_bc(psi, Y, W)
        obj = reduced_objective(psi, b, c)
        trace.append(obj)
        if obj < best_obj:
            best_obj = obj
            best = (a_bar.copy(), b.copy(), c.copy())
            best_trace = trace
            best_converged = converged

    a_bar, b, c = best
    params = DecayParams(
        a0=1.0, a_half=float(a_bar[0]), a1=float(a_bar[1]),
        a2=float(a_bar[2]), a3=float(a_bar[3]), b=b, c=c,
    )
    return DecayFit(
        params=params,
        history=list(history),
        objective_value=best_obj,
        converged=best_converged,
        objective_trace=best_trace,
        start_objectives=start_objs,
    )


# -- eager EDG gains -----------------------------------------------------------
#
# ``_PoolScorer.gains`` as it ran before the per-pair gain terms were cached:
# the curve evaluated twice at every (sentence, group) pair at every pick, and
# over the dense (rows, J) membership matrix for the soft partition.


def eager_gains(scorer, partition_index):
    state = scorer.state
    params = state.fits[partition_index].params
    m = state.train_mass[partition_index]
    da = state.da_mass[partition_index]
    index = scorer.index[partition_index]
    if index.soft:  # dense over (rows, J)
        before = curve_values(params, m)[None, :]
        after = curve_values(params, m[None, :] + index.membership * scorer.lengths[:, None])
        return ((before - after) * da[None, :]).sum(axis=1)
    indptr, gids, vals = index.pairs
    before = curve_values(params, m[gids], groups=gids)
    after = curve_values(params, m[gids] + vals, groups=gids)
    return np.add.reduceat((before - after) * da[gids], indptr[:-1])


# -- batch assembly before the one unit-taking loop ---------------------------


def take_by_score(ctx, scores):
    """Fixed-score batch assembly of rnd, us and bald: ``ctx`` needs
    ``pool``, ``config.mode`` and ``token_budget``; ``scores`` maps ids."""
    pool = sorted(ctx.pool, key=lambda s: s.id)
    picked: list[int] = []
    tokens = 0
    if ctx.config.mode == "SENTENCE":
        order = sorted(pool, key=lambda s: (-scores[s.id], s.id))
        for s in order:
            if tokens >= ctx.token_budget:
                return Batch(tuple(picked), tokens)
            picked.append(s.id)
            tokens += len(s)
        return Batch(tuple(picked), tokens, exhausted=tokens < ctx.token_budget)
    docs: dict[int, list[Sentence]] = {}
    for s in pool:
        if s.doc_id is None:
            raise ValueError(f"sentence {s.id} has no document id (DOCUMENT mode)")
        docs.setdefault(s.doc_id, []).append(s)
    doc_scores = {
        d: sum(scores[s.id] * len(s) for s in members) / sum(len(s) for s in members)
        for d, members in docs.items()
    }
    for d in sorted(docs, key=lambda d: (-doc_scores[d], d)):
        if tokens >= ctx.token_budget:
            return Batch(tuple(picked), tokens)
        for s in docs[d]:
            picked.append(s.id)
            tokens += len(s)
    return Batch(tuple(picked), tokens, exhausted=tokens < ctx.token_budget)


def per_document_best_rows(scores, lengths, doc_ids, active):
    """Active rows of the document with the largest length-weighted mean
    score (the smallest document id on ties)."""
    best_doc = None
    best_score = -np.inf
    for d in np.unique(doc_ids[active]):
        sel = active & (doc_ids == d)
        w = lengths[sel]
        ds = float((scores[sel] * w).sum() / w.sum())
        if ds > best_score:
            best_doc, best_score = d, ds
    return np.flatnonzero(active & (doc_ids == best_doc))


def rescoring_pick_loop(ids, lengths, token_budget, scores, doc_ids=None, take=None):
    """``select_batch``'s pick loop: ``scores(active)`` gives every row a
    score, ``-inf`` where inactive, and is called again after each unit."""
    active = np.ones(len(ids), dtype=bool)
    picked: list[int] = []
    tokens = 0
    while tokens < token_budget:
        if not active.any():
            return Batch(tuple(picked), tokens, exhausted=True)
        row_scores = scores(active)
        if doc_ids is None:
            rows = [int(np.argmax(row_scores))]
        else:
            rows = per_document_best_rows(row_scores, lengths, doc_ids, active)
        for row in rows:
            active[int(row)] = False
            if take is not None:
                take(int(row))
            picked.append(ids[int(row)])
            tokens += int(lengths[int(row)])
    return Batch(tuple(picked), tokens)


def dict_fass_select(
    pool_scores: Mapping[int, float] | None,
    embeddings: Mapping[int, np.ndarray],
    lengths: Mapping[int, int],
    token_budget: int,
    t_factor: int = 100,
    rng: np.random.Generator | None = None,
    mode: str = "SENTENCE",
    doc_ids: Mapping[int, int] | None = None,
) -> Batch:
    """``fass_select`` over per-id dicts, before the array API.

    Filter the most uncertain sentences, then greedily cover them.
    The filter keeps the top ``t_factor`` x (expected batch sentence count)
    sentences by uncertainty; with ``pool_scores=None`` (pure
    diversification) it keeps a seeded uniform random candidate set of the
    same size.  Selection greedily maximizes a facility-location coverage
    function over shifted cosine similarities (cos + 1, keeping the
    objective monotone submodular), with per-step gains normalized by
    sentence length, until the token budget is met.
    """
    if t_factor < 1:
        raise ValueError("t_factor must be >= 1")
    ids = sorted(embeddings)
    if not ids:
        raise ValueError("empty candidate pool")
    n = len(ids)
    mean_len = sum(lengths[i] for i in ids) / n
    expected = max(1, math.ceil(token_budget / max(mean_len, 1.0)))
    keep = min(n, t_factor * expected)

    if pool_scores is None:
        if rng is None:
            raise ValueError("pure diversification needs a seeded rng for the filter")
        chosen = rng.choice(n, size=keep, replace=False)
        cand_ids = sorted(ids[i] for i in chosen)
    else:
        order = sorted(ids, key=lambda i: (-pool_scores[i], i))
        cand_ids = sorted(order[:keep])

    X = np.stack([np.asarray(embeddings[i], dtype=np.float32) for i in cand_ids])
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0] = 1.0
    Xn = X / norms[:, None]
    # shifted cosine in [0, 2], built in place; clamping at 0 changes no
    # gain, because ``cover`` starts at 0 and only grows
    sim = Xn @ Xn.T
    sim += np.float32(1.0)
    np.maximum(sim, 0.0, out=sim)
    lens = np.asarray([lengths[i] for i in cand_ids], dtype=np.float64)

    if mode == "DOCUMENT":
        if doc_ids is None:
            raise ValueError("DOCUMENT mode needs doc_ids")
        docs = np.asarray([doc_ids[i] for i in cand_ids])

    cover = np.zeros(len(cand_ids), dtype=np.float32)
    active = np.ones(len(cand_ids), dtype=bool)
    picked: list[int] = []
    tokens = 0

    def row_gain(row: int) -> float:
        return float(
            np.maximum(sim[row] - cover, 0.0).sum(dtype=np.float64) / lens[row]
        )

    if mode == "SENTENCE":
        # lazy greedy: stale heap bounds only overestimate (submodularity),
        # so popping until the top bound falls below the best fresh gain
        # reproduces the exact argmax, including smallest-id tie-breaking
        import heapq

        init = sim.sum(axis=1, dtype=np.float64) / lens
        heap = [(-g, row) for row, g in enumerate(init)]
        heapq.heapify(heap)
        fresh = np.zeros(len(cand_ids), dtype=bool)
        while tokens < token_budget:
            if not heap:
                return Batch(tuple(picked), tokens, exhausted=True)
            fresh[:] = False
            best_row = -1
            best_gain = -np.inf
            while heap:
                neg_bound, row = heap[0]
                bound = -neg_bound
                if bound < best_gain or (bound == best_gain and row > best_row):
                    break
                heapq.heappop(heap)
                if not active[row]:
                    continue
                if fresh[row]:
                    gain = bound
                else:
                    gain = row_gain(row)
                    fresh[row] = True
                    if gain < bound:
                        heapq.heappush(heap, (-gain, row))
                        continue
                if gain > best_gain or (gain == best_gain and row < best_row):
                    if best_row >= 0:
                        heapq.heappush(heap, (-best_gain, best_row))
                    best_gain, best_row = gain, row
                else:
                    heapq.heappush(heap, (-gain, row))
            if best_row < 0:
                return Batch(tuple(picked), tokens, exhausted=True)
            active[best_row] = False
            cover = np.maximum(cover, sim[best_row])
            picked.append(cand_ids[best_row])
            tokens += int(lens[best_row])
        return Batch(tuple(picked), tokens)

    while tokens < token_budget:
        if not active.any():
            return Batch(tuple(picked), tokens, exhausted=True)
        gains = np.asarray([row_gain(r) if active[r] else -np.inf
                            for r in range(len(cand_ids))])
        for row in per_document_best_rows(gains, lens, docs, active):
            active[row] = False
            cover = np.maximum(cover, sim[row])
            picked.append(cand_ids[row])
            tokens += int(lens[row])
    return Batch(tuple(picked), tokens)


def heap_fass_select(
    scores: np.ndarray | None,
    ids: np.ndarray,
    embeddings: np.ndarray,
    lengths: np.ndarray,
    token_budget: int,
    t_factor: int = 100,
    rng: np.random.Generator | None = None,
    doc_ids: np.ndarray | None = None,
) -> Batch:
    """``fass_select`` before its one lazy-greedy loop: a lazy heap with a
    per-step best-row scan in SENTENCE mode, and in DOCUMENT mode every
    candidate's gain recomputed at each step by ``take_units``."""
    if t_factor < 1:
        raise ValueError("t_factor must be >= 1")
    n = len(ids)
    if not n:
        raise ValueError("empty candidate pool")
    mean_len = float(np.sum(lengths)) / n
    expected = max(1, math.ceil(token_budget / max(mean_len, 1.0)))
    keep = min(n, t_factor * expected)

    if scores is None:
        if rng is None:
            raise ValueError("pure diversification needs a seeded rng for the filter")
        cand = np.sort(rng.choice(n, size=keep, replace=False))
    else:
        # a stable sort keeps equal scores in ascending id order
        cand = np.sort(np.argsort(-np.asarray(scores), kind="stable")[:keep])
    cand_ids = np.asarray(ids)[cand].tolist()

    X = np.asarray(embeddings[cand], dtype=np.float32)
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0] = 1.0
    Xn = X / norms[:, None]
    # shifted cosine in [0, 2], built in place; clamping at 0 changes no
    # gain, because ``cover`` starts at 0 and only grows
    sim = Xn @ Xn.T
    sim += np.float32(1.0)
    np.maximum(sim, 0.0, out=sim)
    lens = np.asarray(lengths, dtype=np.float64)[cand]

    cover = np.zeros(len(cand_ids), dtype=np.float32)
    active = np.ones(len(cand_ids), dtype=bool)
    picked: list[int] = []
    tokens = 0

    def row_gain(row: int) -> float:
        return float(
            np.maximum(sim[row] - cover, 0.0).sum(dtype=np.float64) / lens[row]
        )

    if doc_ids is None:
        # lazy greedy: stale heap bounds only overestimate (submodularity),
        # so popping until the top bound falls below the best fresh gain
        # reproduces the exact argmax, including smallest-id tie-breaking
        import heapq

        init = sim.sum(axis=1, dtype=np.float64) / lens
        heap = [(-g, row) for row, g in enumerate(init)]
        heapq.heapify(heap)
        fresh = np.zeros(len(cand_ids), dtype=bool)
        while tokens < token_budget:
            if not heap:
                return Batch(tuple(picked), tokens, exhausted=True)
            fresh[:] = False
            best_row = -1
            best_gain = -np.inf
            while heap:
                neg_bound, row = heap[0]
                bound = -neg_bound
                if bound < best_gain or (bound == best_gain and row > best_row):
                    break
                heapq.heappop(heap)
                if not active[row]:
                    continue
                if fresh[row]:
                    gain = bound
                else:
                    gain = row_gain(row)
                    fresh[row] = True
                    if gain < bound:
                        heapq.heappush(heap, (-gain, row))
                        continue
                if gain > best_gain or (gain == best_gain and row < best_row):
                    if best_row >= 0:
                        heapq.heappush(heap, (-best_gain, best_row))
                    best_gain, best_row = gain, row
                else:
                    heapq.heappush(heap, (-gain, row))
            if best_row < 0:
                return Batch(tuple(picked), tokens, exhausted=True)
            active[best_row] = False
            cover = np.maximum(cover, sim[best_row])
            picked.append(cand_ids[best_row])
            tokens += int(lens[best_row])
        return Batch(tuple(picked), tokens)

    def take(row: int) -> None:
        np.maximum(cover, sim[row], out=cover)

    return take_units(
        cand_ids, lens, token_budget,
        lambda rows: np.asarray([row_gain(r) for r in rows]),
        np.asarray(doc_ids)[cand], take,
    )


# -- burn-in before it went through take_units --------------------------------


def walk_burn_in(sentences, mode, seed, targets):
    """Burn-in's own walk over a seeded unit order: the selected ids at each
    burn-in target, one tuple per target."""
    remaining = dict(sorted((s.id, s) for s in sentences))
    pool_row = {s.id: row for row, s in enumerate(sentences)}
    pool_docs = np.asarray([s.doc_id for s in sentences]) if mode == "DOCUMENT" else None
    train_tokens = 0

    burn_rng = np.random.default_rng([seed, 11])
    if pool_docs is not None:
        docs: dict[int, list[int]] = {}
        for sid in remaining:
            docs.setdefault(int(pool_docs[pool_row[sid]]), []).append(sid)
        doc_ids = sorted(docs)
        burn_units = [
            tuple(docs[doc_ids[int(i)]])
            for i in burn_rng.permutation(len(doc_ids))
        ]
    else:
        burn_units = [
            (int(i),) for i in burn_rng.permutation(sorted(remaining))
        ]
    burn_order = [sid for unit in burn_units for sid in unit]
    unit_at_flat: dict[int, tuple[int, ...]] = {}
    flat = 0
    for unit in burn_units:
        unit_at_flat[flat] = unit
        flat += len(unit)
    burn_pointer = 0  # flat index; always sits on a unit boundary

    batches = []
    for target in targets:
        selected: list[int] = []
        while train_tokens < target and burn_pointer < len(burn_order):
            unit = unit_at_flat[burn_pointer]
            for sid in unit:
                burn_pointer += 1
                if sid in remaining:
                    train_tokens += len(remaining.pop(sid))
                    selected.append(sid)
        if train_tokens < target:
            raise RuntimeError("pool exhausted during burn-in")
        batches.append(tuple(selected))
    return batches


# -- synthetic entity types before the running sum ----------------------------


def mean_assign_types(word_ids, spec, likelihood, rng):
    """``simlab._assign_types`` as it was: ``np.argmax`` of ``np.mean`` over
    the stacked likelihood rows of a context token's neighbours."""
    c2_start = spec.n_always_none
    c3_start = spec.n_always_none + spec.n_noise
    types = spec.types
    out = []
    for pos, wid in enumerate(word_ids):
        if wid < c2_start:
            out.append("O")
        elif wid < c3_start:
            draw = int(rng.integers(spec.n_types + 1))
            out.append("O" if draw == spec.n_types else types[draw])
        else:
            neighbors = []
            for off in (-2, -1, 1, 2):
                q = pos + off
                if 0 <= q < len(word_ids) and word_ids[q] >= c3_start:
                    neighbors.append(likelihood[word_ids[q] - c3_start])
            if not neighbors:
                neighbors = [likelihood[wid - c3_start]]
            avg = np.mean(neighbors, axis=0)
            out.append(types[int(np.argmax(avg))])
    return out
