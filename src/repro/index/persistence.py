"""Index persistence and size accounting (Table II / Figure 10(a)).

The paper compares *index sizes in MB* across systems.  We measure the pickled
footprint of each index component, which tracks the information content the
respective system must materialise:

* PRG — MF-index (memory) + DF-index clusters (disk) + the A2I DIF array;
* SG/GR — their shared frequent-feature index;
* DVP — its σ-dependent decomposition index (built per σ).

Pickle memoizes by identity, so the index components are measured on a copy
in which equal strings are one object (:func:`_shared`): a size must not
depend on whether two equal labels happen to be one object in this process.

The one on-disk format, :func:`save_indexes`/:func:`load_indexes`, pickles
the raw fragment catalogs with the fingerprint of the database they were
mined from (:func:`repro.index.builder.database_fingerprint`); loading
refuses any other database, then rebuilds indexes whose lookups and size
accounting equal the live ones (``tests/index/test_persistence.py`` holds
that property).
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from repro.exceptions import IndexError_
from repro.graph.database import GraphDatabase
from repro.index.builder import ActionAwareIndexes, database_fingerprint


def pickled_size_bytes(obj: Any) -> int:
    """Size of the pickled representation of ``obj``."""
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _shared(obj: Any, memo: Dict[int, Tuple[Any, Any]]) -> Any:
    """``obj`` with every string interned, so equal strings are one object.

    Containers are rebuilt once per original, memoised by ``id`` (the memo
    also holds each original, so no id is reused mid-walk): a sub-object the
    payload shares stays shared and still pickles once.
    """
    entry = memo.get(id(obj))
    if entry is not None:
        return entry[1]
    if isinstance(obj, str):
        out = sys.intern(obj)
    elif type(obj) in (tuple, list, frozenset):
        out = type(obj)(_shared(item, memo) for item in obj)
    else:
        out = obj
    memo[id(obj)] = (obj, out)
    return out


def _index_size_bytes(payload: Any) -> int:
    """Pickled size of an index component, independent of string identity."""
    return pickled_size_bytes(_shared(payload, {}))


def a2f_size_bytes(indexes: ActionAwareIndexes) -> Dict[str, int]:
    """MF (≤ β) and DF (> β) component sizes of the A2F-index, in bytes."""
    a2f = indexes.a2f
    mf_payload = [
        (v.a2f_id, v.code, v.size, v.del_ids, v.children, v.cluster_list)
        for v in a2f.mf_vertices()
    ]
    df_payload = [
        (v.a2f_id, v.code, v.size, v.del_ids, v.children)
        for v in a2f.df_vertices()
    ]
    return {
        "mf_bytes": _index_size_bytes(mf_payload),
        "df_bytes": _index_size_bytes(df_payload),
    }


def a2i_size_bytes(indexes: ActionAwareIndexes) -> int:
    payload = [
        (e.a2i_id, e.code, e.fsg_ids) for e in indexes.a2i.entries()
    ]
    return _index_size_bytes(payload)


def prague_index_size_bytes(indexes: ActionAwareIndexes) -> int:
    """Total PRG index footprint (MF + DF + A2I)."""
    parts = a2f_size_bytes(indexes)
    return parts["mf_bytes"] + parts["df_bytes"] + a2i_size_bytes(indexes)


def save_indexes(
    indexes: ActionAwareIndexes, path: Union[str, Path], db: GraphDatabase
) -> int:
    """Pickle the raw catalogs, with the fingerprint of ``db`` (the database
    they were mined from), to ``path``; returns bytes written."""
    path = Path(path)
    payload = (
        indexes.frequent, indexes.difs, indexes.params, indexes.db_size,
        database_fingerprint(db, indexes.params),
    )
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    path.write_bytes(data)
    return len(data)


def load_indexes(path: Union[str, Path], db: GraphDatabase) -> ActionAwareIndexes:
    """Inverse of :func:`save_indexes` (indexes are rebuilt from catalogs).

    Raises :class:`~repro.exceptions.IndexError_` unless the file was saved
    for ``db``: catalogs mined from another database answer its queries
    wrongly, without any error.
    """
    from repro.index.a2f import A2FIndex
    from repro.index.a2i import A2IIndex
    from repro.index.builder import ActionAwareIndexes as _AAI

    with Path(path).open("rb") as handle:
        payload = pickle.load(handle)
    if not isinstance(payload, tuple) or len(payload) != 5:
        raise IndexError_(
            f"{path} carries no database fingerprint (an older catalog "
            "format); re-run `repro index` to rebuild it"
        )
    frequent, difs, params, db_size, fingerprint = payload
    if fingerprint != database_fingerprint(db, params):
        raise IndexError_(
            f"{path} was mined from a different database than the one "
            "given; re-run `repro index` on this database"
        )
    return _AAI(
        a2f=A2FIndex(frequent, params.size_threshold),
        a2i=A2IIndex(difs),
        frequent=frequent,
        difs=difs,
        params=params,
        db_size=db_size,
    )
