"""Independent reference implementations used by the test suite.

These deliberately avoid the library's own decoding/matching code paths so
they can serve as oracles.
"""

import math
from typing import Mapping, Sequence

import numpy as np

from groupdecay.corpus import _BIO_RE, Dataset, Sentence, Token, entity_type, shape_class
from groupdecay.decay import curve_values
from groupdecay.partition import N_SHAPES, PartitionKind, aligned_labels
from groupdecay.scoring import Phrase, ScoreReport
from groupdecay.selection import Batch
from groupdecay.strategies import PredictionRecord


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


# -- eager EDG gains -----------------------------------------------------------
#
# ``_PoolScorer.gains`` as it ran before the per-pair gain terms were cached:
# the curve evaluated twice at every (sentence, group) pair at every pick.


def eager_gains(scorer, partition_index):
    state = scorer.state
    params = state.fits[partition_index].params
    m = state.train_mass[partition_index]
    da = state.da_mass[partition_index]
    if scorer.hard[partition_index] is None:
        P = scorer.index[partition_index].membership
        before = curve_values(params, m)[None, :]
        after = curve_values(params, m[None, :] + P * scorer.lengths[:, None])
        return ((before - after) * da[None, :]).sum(axis=1)
    indptr, gids, vals = scorer.hard[partition_index]
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
