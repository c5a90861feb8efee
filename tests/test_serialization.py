import copy
import gc
import json
import pickle
import re
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from comulti.classifiers import (
    CombinerSpec,
    ForestSpec,
    SmoSpec,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from comulti.cmc import CmcModel, fit_cmc
from comulti.cmcm import CmcmModel, fit_cmcm
from comulti.datagen import sparse_topics
from comulti.dataset import Dataset, FeatureSchema, class_stats
from comulti.errors import ConfigError, DataError
from comulti.multistage import MultistageModel, StageThresholds, fit_multistage

from conftest import duplicate_csr_dataset, make_dataset


def probe(rng, n, d):
    return rng.normal(size=(n, d)) * 5


def test_forest_round_trip_bit_exact(tmp_path, separable_clusters):
    ds = separable_clusters(n_per_side=12, gap=3.0)
    model = fit(ForestSpec(trees=11), ds, seed=0)
    path = tmp_path / "forest.json"
    save_model(model, path)
    again = load_model(path)
    x = probe(np.random.default_rng(0), 40, 2)
    assert np.array_equal(model.predict_proba_batch(x),
                          again.predict_proba_batch(x))


def _noisy_forest():
    """A 2-tree forest over 3 features and 3 labels whose trees have
    inner nodes below the root."""
    rng = np.random.default_rng(6)
    ds = make_dataset(rng.normal(size=(60, 3)), rng.integers(0, 3, 60))
    return fit(ForestSpec(trees=2), ds, seed=1)


def _break_vote_high(doc, tree, inner, leaf):
    tree["vote"][leaf] = 5


def _break_vote_negative(doc, tree, inner, leaf):
    tree["vote"][leaf] = -1


def _break_feature(doc, tree, inner, leaf):
    tree["feature"][inner[0]] = 7


def _break_child_negative(doc, tree, inner, leaf):
    tree["left"][inner[0]] = -2


def _break_child_backward(doc, tree, inner, leaf):
    tree["right"][inner[-1]] = inner[0]


def _break_child_self_loop(doc, tree, inner, leaf):
    tree["left"][inner[-1]] = inner[-1]


def _break_child_past_tree(doc, tree, inner, leaf):
    tree["right"][inner[0]] = len(tree["feature"])


def _break_lengths(doc, tree, inner, leaf):
    tree["threshold"].pop()


def _break_empty_tree(doc, tree, inner, leaf):
    for key in ("feature", "threshold", "left", "right", "vote"):
        tree[key] = []


def _break_no_trees(doc, tree, inner, leaf):
    doc["forest"] = []


def _break_n_features(doc, tree, inner, leaf):
    doc["n_features"] = 2.5


def _break_node_id_overflow(doc, tree, inner, leaf):
    tree["left"][inner[0]] = 2 ** 40


def _break_missing_vote(doc, tree, inner, leaf):
    del tree["vote"]


def _break_missing_forest(doc, tree, inner, leaf):
    del doc["forest"]


@pytest.mark.parametrize("breaker", [
    _break_vote_high, _break_vote_negative, _break_feature,
    _break_child_negative, _break_child_backward, _break_child_self_loop,
    _break_child_past_tree, _break_lengths, _break_empty_tree,
    _break_no_trees, _break_n_features, _break_node_id_overflow,
    _break_missing_vote, _break_missing_forest])
def test_malformed_forest_document_is_data_error(breaker):
    doc = model_to_dict(_noisy_forest())
    tree = doc["forest"][0]
    inner = [i for i, f in enumerate(tree["feature"]) if f >= 0]
    leaf = tree["feature"].index(-1)
    assert len(inner) >= 2 and inner[0] == 0
    breaker(doc, tree, inner, leaf)
    raised = []

    def load_and_predict():  # must raise, never hang or predict
        try:
            model = model_from_dict(doc)
            model.predict_proba_batch(probe(np.random.default_rng(0), 9, 3))
        except Exception as exc:  # noqa: BLE001 - checked below
            raised.append(exc)

    worker = threading.Thread(target=load_and_predict, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "loading or predicting hung"
    assert len(raised) == 1 and isinstance(raised[0], DataError), raised


def test_forest_copies_pack_their_own_table():
    model = _noisy_forest()
    x = probe(np.random.default_rng(2), 50, 3)
    want = model.predict_proba_batch(x).tobytes()
    copies = [copy.deepcopy(model), pickle.loads(pickle.dumps(model))]
    del model
    gc.collect()
    for again in copies:
        table = again._table
        assert [table.roots, table.nodes] == [again._roots.ctypes.data,
                                              again._nodes.ctypes.data]
        assert again._table_ref._obj is table
        assert again.predict_proba_batch(x).tobytes() == want


def test_fitted_arrays_are_read_only():
    """What a model predicts from is what it saves: writing through any
    array it shows raises, and its document stays as it was."""
    rng = np.random.default_rng(8)
    dense = make_dataset(rng.normal(size=(40, 2)), np.arange(40) % 3)
    forest, smo, sparse_smo = (
        fit(ForestSpec(trees=3), dense, seed=0),
        fit(SmoSpec(), dense, seed=0),
        fit(SmoSpec(degree=2), duplicate_csr_dataset(), seed=0))
    docs = [json.dumps(model_to_dict(m)) for m in (forest, smo, sparse_smo)]
    arrays = [getattr(t, name) for t in forest.trees
              for name in ("feature", "threshold", "left", "right", "vote")]
    for m in (smo, sparse_smo):
        arrays += [*m.sv_index, *m.sv_coef, m.bias, m.platt_a, m.platt_b,
                   m.kkt_gaps]
    arrays += [smo.sv_x, sparse_smo.sv_x.data, sparse_smo.sv_x.indices,
               sparse_smo.sv_x.indptr]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 2
    with pytest.raises(ValueError, match="read-only"):
        forest.trees[0].threshold = 0.5
    assert [json.dumps(model_to_dict(m))
            for m in (forest, smo, sparse_smo)] == docs


def test_forest_keeps_one_32_byte_record_per_node():
    """A 100-tree forest on the full sparse_topics keeps its nodes once:
    with the tree list and table, at most 40 bytes per node stay
    allocated after the fit."""
    ds = sparse_topics(seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = fit(ForestSpec(trees=100), ds, seed=0)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nodes = sum(t.feature.size for t in model.trees)
    assert kept <= 40 * nodes, kept / nodes


def test_smo_round_trip_bit_exact(tmp_path, separable_clusters):
    ds = separable_clusters(n_per_side=12, gap=3.0)
    model = fit(SmoSpec(degree=2, c=2.0), ds, seed=0)
    path = tmp_path / "smo.json"
    save_model(model, path)
    again = load_model(path)
    x = probe(np.random.default_rng(1), 40, 2)
    assert np.array_equal(model.predict_proba_batch(x),
                          again.predict_proba_batch(x))


def test_smo_without_support_vectors_round_trips(tmp_path):
    # A tolerance above the starting gap of 2 stops the solver at once, so
    # no row is a support vector; the document still says how many
    # columns the (0, 2) support-vector matrix has.
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.normal(size=(20, 2)), np.arange(20) % 2)
    model = fit(SmoSpec(tol=2.5), ds, seed=0)
    assert model.sv_x.shape == (0, 2)
    path = tmp_path / "smo.json"
    save_model(model, path)
    again = load_model(path)
    assert again.sv_x.shape == (0, 2)
    x = probe(rng, 10, 2)
    assert again.predict_proba_batch(x).tobytes() == \
        model.predict_proba_batch(x).tobytes()
    assert model_to_dict(again) == model_to_dict(model)


def test_smo_copies_predict_as_the_fitted_model():
    # Sparse support vectors with unsorted indices and a column stored
    # twice in a row, as load_sparse reads a line that names it twice.
    rng = np.random.default_rng(4)
    indptr, indices = [0], []
    for _ in range(50):
        cols = rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
        indices.extend([*cols.tolist(), int(cols[-1])])
        indptr.append(len(indices))
    x = sp.csr_matrix((rng.integers(1, 4, size=len(indices)).astype(float),
                       indices, indptr), shape=(50, 12))
    ds = Dataset(FeatureSchema.numeric(12), x, np.arange(50) % 3,
                 ("a", "b", "c"))
    model = fit(SmoSpec(degree=2), ds, seed=0)
    rows = sp.random(30, 12, density=0.3, format="csr", random_state=rng,
                     data_rvs=lambda k: rng.integers(1, 4, size=k) * 1.0)
    want = model.predict_proba_batch(rows).tobytes()
    one = [model.predict_proba_batch(rows[i:i + 1]).tobytes()
           for i in range(rows.shape[0])]
    copies = [model_from_dict(json.loads(json.dumps(model_to_dict(model)))),
              copy.deepcopy(model), pickle.loads(pickle.dumps(model))]
    del model
    gc.collect()
    for again in copies:
        assert sp.issparse(again.sv_x)
        assert again.predict_proba_batch(rows).tobytes() == want
        assert [again.predict_proba_batch(rows[i:i + 1]).tobytes()
                for i in range(rows.shape[0])] == one


def _smo_doc():
    """A 3-label margin classifier over 2 dense features, as a document."""
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.normal(size=(40, 2)), np.arange(40) % 3)
    doc = model_to_dict(fit(SmoSpec(), ds, seed=0))
    assert all(doc["sv_index"]) and len(doc["space"]) == 3
    return doc


def _smo_missing_key(doc):
    del doc["bias"]


def _smo_bad_value(doc):
    doc["sv_coef"][0][0] = "x"


def _smo_sv_index_past_end(doc):
    doc["sv_index"][0][0] = len(doc["sv_x"]["values"])


def _smo_sv_index_negative(doc):
    doc["sv_index"][0][0] = -1


def _smo_bias_short(doc):
    doc["bias"].pop()


def _smo_platt_short(doc):
    doc["platt_a"].pop()


def _smo_coef_short(doc):
    doc["sv_coef"][0].pop()


def _smo_class_missing(doc):
    doc["sv_index"].pop()


@pytest.mark.parametrize("breaker", [
    _smo_missing_key, _smo_bad_value, _smo_sv_index_past_end,
    _smo_sv_index_negative, _smo_bias_short, _smo_platt_short,
    _smo_coef_short, _smo_class_missing])
def test_malformed_smo_document_is_data_error_at_load(breaker):
    doc = _smo_doc()
    model_from_dict(json.loads(json.dumps(doc)))  # the unbroken one loads
    breaker(doc)
    with pytest.raises(DataError, match="smo_margin"):
        model_from_dict(doc)


@pytest.mark.parametrize("values", [[1.0, 2.0], []], ids=["flat", "empty"])
def test_dense_support_vectors_must_be_a_matrix(values):
    """A flat list used to load as one support vector, and ``[]`` as a
    model of no features."""
    doc = _smo_doc()
    doc["sv_x"]["values"] = values
    with pytest.raises(DataError, match="^smo_margin model document: sv_x "
                                        "is not a matrix$"):
        model_from_dict(doc)


def test_class_statistics_must_agree_with_their_counts():
    doc = json.loads(json.dumps(_fitted_cmc()[0].to_dict()))
    doc["stats"]["minority"] = doc["stats"]["minority"][1:]
    with pytest.raises(DataError, match="^class statistics: stored minority "
                                        "disagree"):
        CmcModel.from_dict(doc)
    del doc["stats"]["total"]
    with pytest.raises(DataError, match="^cmc model document: missing key "
                                        "'total'$"):
        CmcModel.from_dict(doc)


def test_missing_model_key_names_the_model_kind():
    forest = model_to_dict(_noisy_forest())
    del forest["forest"]
    with pytest.raises(DataError, match="random_forest.*'forest'"):
        model_from_dict(forest)
    smo = _smo_doc()
    del smo["sv_x"]
    with pytest.raises(DataError, match="smo_margin.*'sv_x'"):
        model_from_dict(smo)


def test_smo_sparse_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    dense = np.abs(rng.normal(size=(30, 6))) * (rng.random((30, 6)) < 0.4)
    y = np.array([0] * 20 + [1] * 10)
    two_labels = Dataset(FeatureSchema.numeric(6), sp.csr_matrix(dense), y,
                         ("a", "b"))
    # Every row of the second stores one column twice: reloaded, the
    # support vectors keep both entries, in order, so kernels sum as fitted.
    for ds, spec in ((two_labels, SmoSpec()),
                     (duplicate_csr_dataset(), SmoSpec(degree=2))):
        model = fit(spec, ds, seed=0)
        save_model(model, tmp_path / "s.json")
        again = load_model(tmp_path / "s.json")
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(again.sv_x, part),
                                  getattr(model.sv_x, part))
        probes = np.abs(rng.normal(size=(10, ds.x.shape[1])))
        for x in (ds.x, probes):
            assert again.predict_proba_batch(x).tobytes() == \
                model.predict_proba_batch(x).tobytes()


def _sparse_smo_doc():
    doc = model_to_dict(fit(SmoSpec(degree=2), duplicate_csr_dataset(),
                            seed=0))
    assert doc["sv_x"]["sparse"]
    return doc


def _sparse_col_past_end(sv):
    sv["col"][-1] = sv["shape"][1]


def _sparse_col_negative(sv):
    sv["col"][0] = -1


def _sparse_row_past_end(sv):
    sv["row"][-1] = sv["shape"][0]


def _sparse_row_negative(sv):
    sv["row"][0] = -1


def _sparse_data_short(sv):
    sv["data"].pop()


@pytest.mark.parametrize("breaker", [
    _sparse_col_past_end, _sparse_col_negative, _sparse_row_past_end,
    _sparse_row_negative, _sparse_data_short])
def test_malformed_sparse_smo_document_is_data_error_at_load(breaker):
    doc = _sparse_smo_doc()
    model_from_dict(json.loads(json.dumps(doc)))  # the unbroken one loads
    breaker(doc["sv_x"])
    with pytest.raises(DataError, match="smo_margin"):
        model_from_dict(doc)


def test_combiner_round_trip(tmp_path, separable_clusters):
    """A combiner is saved only as part of its multistage model; the
    standalone form that no version writes is an unknown kind."""
    ds = separable_clusters(n_per_side=10, gap=2.0)
    a = fit(ForestSpec(trees=7), ds, seed=1)
    b = fit(SmoSpec(), ds, seed=1)
    with pytest.raises(DataError, match="forest or a margin classifier"):
        save_model(CombinerSpec(left=0, right=1), tmp_path / "c.json")
    v1 = {"kind": "max_confidence_pair", "left": 0, "right": 1,
          "a": {**a.to_dict(), "format_version": 1},
          "b": {**b.to_dict(), "format_version": 1},
          "format_version": 1}
    (tmp_path / "v1.json").write_text(json.dumps(v1))
    with pytest.raises(DataError) as err:
        load_model(tmp_path / "v1.json")
    assert str(err.value) == "unknown model kind 'max_confidence_pair'"


def test_model_format_version_checked():
    doc = {"kind": "random_forest", "format_version": 999}
    with pytest.raises(DataError, match="format version"):
        model_from_dict(doc)


def test_multistage_round_trip_shares_combiner_stages(separable_clusters):
    ds = separable_clusters(n_per_side=14, gap=2.5)
    m = fit_multistage(
        [ForestSpec(trees=9), SmoSpec(), CombinerSpec(left=0, right=1)],
        StageThresholds((0.9, 0.95, 1.0)), ds, seed=2)
    doc = json.loads(json.dumps(m.to_dict()))
    again = MultistageModel.from_dict(doc)
    assert again.stages[2] == CombinerSpec(0, 1)
    x = probe(np.random.default_rng(4), 30, 2)
    da, ua = m.predict_batch(x)
    db, ub = again.predict_batch(x)
    assert np.array_equal(da, db)
    assert np.array_equal(ua, ub)


@pytest.mark.parametrize("left,right", [(-1, 0), (0, 2), (3, 1)])
def test_combiner_reference_must_name_earlier_stages(left, right,
                                                     separable_clusters):
    """A previous stage by negative index, the combiner's own stage and a
    later one are each refused; a spec list is refused the same way."""
    ds = separable_clusters(n_per_side=10, gap=2.0)
    m = fit_multistage(
        [ForestSpec(trees=3), SmoSpec(), CombinerSpec(left=0, right=1),
         ForestSpec(trees=3)], StageThresholds.ones(4), ds, seed=0)
    doc = json.loads(json.dumps(m.to_dict()))
    doc["stages"][2].update(left=left, right=right)
    with pytest.raises(DataError, match="stage 3 must reference earlier"):
        MultistageModel.from_dict(doc)
    with pytest.raises(ConfigError, match="stage 3 must reference earlier"):
        fit_multistage(
            [ForestSpec(trees=3), SmoSpec(),
             CombinerSpec(left=left, right=right), ForestSpec(trees=3)],
            StageThresholds.ones(4), ds, seed=0)


def test_model_to_dict_points_ensembles_to_their_to_dict(separable_clusters):
    ds = separable_clusters(n_per_side=10, gap=2.0)
    stage = fit_multistage([ForestSpec(trees=3)], StageThresholds.ones(1), ds,
                           seed=0)
    with pytest.raises(DataError, match=r"MultistageModel.*its to_dict\(\)"):
        model_to_dict(stage)
    with pytest.raises(DataError, match=r"CmcModel.*its to_dict\(\)"):
        model_to_dict(_fitted_cmc()[0])


def test_cmc_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(size=(24, 2)),
                   rng.normal(size=(5, 2)) + 4,
                   rng.normal(size=(5, 2)) - 4])
    ds = make_dataset(x, [0] * 24 + [1] * 5 + [2] * 5)
    model = fit_cmc(ds, class_stats(ds), seed=0)
    doc = json.loads(json.dumps(model.to_dict()))
    again = CmcModel.from_dict(doc)
    xs = probe(rng, 30, 2)
    la, _ = model.predict_batch(xs)
    lb, _ = again.predict_batch(xs)
    assert np.array_equal(la, lb)


def test_cmcm_round_trip():
    rng = np.random.default_rng(6)
    sizes = (16, 14, 4, 4, 3)
    xs, ys = [], []
    for c, s in enumerate(sizes):
        xs.append(rng.normal(size=(s, 3)) + 3.0 * c)
        ys.append(np.full(s, c))
    ds = make_dataset(np.vstack(xs), np.concatenate(ys))
    model = fit_cmcm(ds, class_stats(ds), seed=0)
    doc = json.loads(json.dumps(model.to_dict()))
    again = CmcmModel.from_dict(doc)
    q = probe(rng, 20, 3)
    la, ia = model.predict_batch(q)
    lb, ib = again.predict_batch(q)
    assert np.array_equal(la, lb)
    assert ia["branch_counts"] == ib["branch_counts"]


SMALL_SPECS = [ForestSpec(trees=3), SmoSpec(), CombinerSpec(left=0, right=1)]


def _fitted_cmc():
    """cmc on classes c0 (majority), c1 and c2."""
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(size=(24, 2)),
                   rng.normal(size=(5, 2)) + 4,
                   rng.normal(size=(5, 2)) - 4])
    ds = make_dataset(x, [0] * 24 + [1] * 5 + [2] * 5)
    return fit_cmc(ds, class_stats(ds), seed=0, specs=SMALL_SPECS), \
        probe(rng, 30, 2)


def _fitted_cmcm():
    """cmcm on classes c0, c1 (majority), c2, c3 and c4."""
    rng = np.random.default_rng(6)
    sizes = (16, 14, 4, 4, 3)
    x = np.vstack([rng.normal(size=(s, 3)) + 3.0 * c
                   for c, s in enumerate(sizes)])
    ds = make_dataset(x, np.repeat(np.arange(len(sizes)), sizes))
    return fit_cmcm(ds, class_stats(ds), seed=0, specs=SMALL_SPECS), \
        probe(rng, 30, 3)


# The label views earlier versions wrote into two-layer documents.
BINARY_VIEW_1_OF_3 = {"kind": "binary",
                      "view_labels": ["(majority)", "(minority)"],
                      "mapping": [0, 1, 1], "cluster_slot": 1}
FULL_VIEW_3 = {"kind": "full", "view_labels": ["c0", "c1", "c2"],
               "mapping": [0, 1, 2], "cluster_slot": None}
CMCM_VIEWS_2_OF_5 = {
    "binary": {"kind": "binary", "view_labels": ["(majority)", "(minority)"],
               "mapping": [0, 0, 1, 1, 1], "cluster_slot": 1},
    "maj_cluster": {"kind": "maj_cluster",
                    "view_labels": ["(majority)", "c2", "c3", "c4"],
                    "mapping": [0, 0, 1, 2, 3], "cluster_slot": 0},
    "min_cluster": {"kind": "min_cluster",
                    "view_labels": ["(minority)", "c0", "c1"],
                    "mapping": [1, 2, 0, 0, 0], "cluster_slot": 0},
    "full": {"kind": "full", "view_labels": ["c0", "c1", "c2", "c3", "c4"],
             "mapping": [0, 1, 2, 3, 4], "cluster_slot": None},
}


@pytest.mark.parametrize("fitted,views", [
    (_fitted_cmc, {"binary_view": BINARY_VIEW_1_OF_3,
                   "full_view": FULL_VIEW_3}),
    (_fitted_cmcm, {"views": CMCM_VIEWS_2_OF_5}),
])
def test_older_two_layer_document_loads_bit_identically(fitted, views):
    model, q = fitted()
    doc = model.to_dict()
    assert not set(views) & set(doc)  # views are derived, not stored
    older = json.loads(json.dumps({**doc, **views}))
    again = type(model).from_dict(older)
    assert _dump(again.to_dict()) == _dump(doc)
    la, ia = model.predict_batch(q)
    lb, ib = again.predict_batch(q)
    assert la.tobytes() == lb.tobytes() and ia == ib
    for i in range(q.shape[0]):
        assert again.predict(q[i]) == model.predict(q[i])


def test_two_layer_from_dict_names_the_expected_kind():
    cmc_doc = _fitted_cmc()[0].to_dict()
    cmcm_doc = _fitted_cmcm()[0].to_dict()
    with pytest.raises(DataError, match="not a cmc model document.*'cmc'"):
        CmcModel.from_dict(cmcm_doc)
    with pytest.raises(DataError, match="not a cmcm model document.*'cmcm'"):
        CmcmModel.from_dict(cmc_doc)
    for layer in ("binary", "multi", "stats"):
        partial = {k: v for k, v in cmc_doc.items() if k != layer}
        with pytest.raises(DataError, match=f"'cmc' with .*{layer}"):
            CmcModel.from_dict(partial)
    for layer in ("b", "m1", "m2", "m3"):
        partial = {k: v for k, v in cmcm_doc.items() if k != layer}
        with pytest.raises(DataError, match="not a cmcm model document"):
            CmcmModel.from_dict(partial)
    with pytest.raises(DataError, match="not a cmc model document"):
        CmcModel.from_dict([cmc_doc])


# Malformed two-layer documents, each edit given the document and the names
# of its first and last layers.
BREAK_TWO_LAYER = {
    "no-stages": lambda d, first, last: d[first].pop("stages"),
    "no-thresholds": lambda d, first, last: d[last].pop("thresholds"),
    "int-stage": lambda d, first, last: d[first]["stages"].__setitem__(1, 7),
    "no-counts": lambda d, first, last: d["stats"].pop("counts"),
    "list-layer": lambda d, first, last: d.__setitem__(last, [d[last]]),
    "int-labels": lambda d, first, last: d["stats"].__setitem__("labels", 5),
}


@pytest.mark.parametrize("breaker", sorted(BREAK_TWO_LAYER))
@pytest.mark.parametrize("fitted", [_fitted_cmc, _fitted_cmcm])
def test_malformed_two_layer_document_is_one_data_error(fitted, breaker):
    model = fitted()[0]
    doc = json.loads(json.dumps(model.to_dict()))
    BREAK_TWO_LAYER[breaker](doc, model.LAYERS[0][0], model.LAYERS[-1][0])
    with pytest.raises(DataError, match=f"^{model.KIND} model document: "
                                        r"[^\n]+$"):
        type(model).from_dict(doc)


def _edit(what, edit):
    """A breaker that applies ``edit`` to the fitted ``what`` document and
    returns that document."""
    def make(docs):
        edit(docs[what])
        return docs[what]
    return make


# Payloads no reader may take, each built from the fitted documents, with
# the reader it is aimed at and the message that reader gives.
BREAK_DOCUMENT = {
    "multistage-threshold": (
        "multistage", r"^multistage model document: threshold 1.5 outside",
        _edit("multistage", lambda d: d["thresholds"].__setitem__(0, 1.5))),
    "multistage-2-thresholds": (
        "multistage", r"^multistage model document: 3 stages but 2 thresh",
        _edit("multistage", lambda d: d["thresholds"].pop())),
    "multistage-empty": (
        "multistage", r"^multistage model document: missing key 'stages'$",
        lambda docs: {}),
    "multistage-int-stage": (
        "multistage", r"^multistage model document: ",
        _edit("multistage", lambda d: d["stages"].__setitem__(0, 7))),
    "cmc-threshold": (
        "cmc", r"^cmc model document: threshold 1.5 outside",
        _edit("cmc", lambda d: d["multi"]["thresholds"].__setitem__(2, 1.5))),
    "cmc-2-thresholds": (
        "cmc", r"^cmc model document: 3 stages but 2 thresholds$",
        _edit("cmc", lambda d: d["binary"]["thresholds"].pop())),
    "cmcm-threshold": (
        "cmcm", r"^cmcm model document: threshold 1.5 outside",
        _edit("cmcm", lambda d: d["m2"]["thresholds"].__setitem__(1, 1.5))),
    "forest-bool-n-features": (
        "model", r"n_features must be an integer >= 0, got True",
        _edit("forest", lambda d: d.__setitem__("n_features", True))),
    "list": ("file", r"^model document: ", lambda docs: []),
    "not-json": ("file", r"\.json: model document: Expecting",
                 lambda docs: b"{"),
    "not-utf8": ("file", r"not valid UTF-8",
                 lambda docs: b'{"kind": "\xff"}'),
    "deep-json": ("file", r"\.json: model document: maximum recursion",
                  lambda docs: b"[" * 100_000),
}


def _read_file(payload, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(payload if isinstance(payload, bytes)
                     else json.dumps(payload).encode())
    return load_model(path)


READERS = {
    "model": lambda payload, tmp_path: model_from_dict(payload),
    "file": _read_file,
    "multistage": lambda payload, tmp_path: MultistageModel.from_dict(payload),
    "cmc": lambda payload, tmp_path: CmcModel.from_dict(payload),
    "cmcm": lambda payload, tmp_path: CmcmModel.from_dict(payload),
}


@pytest.fixture(scope="module")
def fitted_documents():
    cmc_doc = _fitted_cmc()[0].to_dict()
    return json.dumps({"forest": model_to_dict(_noisy_forest()),
                       "multistage": cmc_doc["binary"], "cmc": cmc_doc,
                       "cmcm": _fitted_cmcm()[0].to_dict()})


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("breaker", sorted(BREAK_DOCUMENT))
def test_malformed_document_is_one_data_error_from_every_reader(
        breaker, reader, fitted_documents, tmp_path):
    target, message, make = BREAK_DOCUMENT[breaker]
    payload = make(json.loads(fitted_documents))
    with pytest.raises(DataError) as raised:
        READERS[reader](payload, tmp_path)
    assert "\n" not in str(raised.value)
    if reader == target:
        assert re.search(message, str(raised.value)), raised.value


# ---------------------------------------------------------------------------
# Round-trip property: to_dict -> JSON -> from_dict on random small data


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


@st.composite
def skewed_datasets(draw):
    """One majority class and 1-3 minority classes (so cmc applies), with
    tied, negative and zero values; dense or CSR."""
    sizes = [draw(st.integers(14, 24))] + draw(
        st.lists(st.integers(2, 5), min_size=1, max_size=3))
    width = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.repeat(np.arange(len(sizes)), sizes)
    x = rng.integers(-3, 4, size=(y.size, width)) * 0.5 \
        + 2.0 * y[:, None] * rng.random(width)
    x[rng.random(x.shape) < 0.4] = 0.0
    sparse = draw(st.booleans())
    ds = Dataset(FeatureSchema.numeric(width),
                 sp.csr_matrix(x) if sparse else x, y,
                 tuple(f"c{i}" for i in range(len(sizes))))
    probe = np.vstack([x[::3], rng.normal(size=(6, width)) * 4])
    return ds, sp.csr_matrix(probe) if sparse else probe


@settings(max_examples=12, deadline=None)
@given(case=skewed_datasets())
def test_model_json_round_trip_property(case):
    ds, q = case
    rows = [q[i:i + 1] for i in range(q.shape[0])]
    for spec in (ForestSpec(trees=3), SmoSpec()):
        model = fit(spec, ds, seed=1)
        again = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert _dump(model_to_dict(again)) == _dump(model_to_dict(model))
        for x in [q] + rows:
            assert again.predict_proba_batch(x).tobytes() \
                == model.predict_proba_batch(x).tobytes()
    model = fit_cmc(ds, class_stats(ds), seed=1,
                    specs=[ForestSpec(trees=3), SmoSpec(),
                           CombinerSpec(left=0, right=1)])
    again = CmcModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert _dump(again.to_dict()) == _dump(model.to_dict())
    la, ia = model.predict_batch(q)
    lb, ib = again.predict_batch(q)
    assert la.tobytes() == lb.tobytes() and ia == ib
    for i in range(q.shape[0]):
        assert again.predict(q[i]) == model.predict(q[i])
