"""The record helpers as they stood before their exact-type fast paths,
relocated out of ``src/``.

``repro.common.records.record_size_bytes`` and ``sort_key_for`` test
``type(value) is str / int / float`` before the ``isinstance`` chain below;
:func:`record_size_bytes` and :func:`sort_key_for` here are the originals,
verbatim.  :func:`field_range` is the deleted ``Dataset.field_range``, over a
dataset's stored records instead of their copies: ``Dataset.field_ranges``
must hold its answer for every field.  Results of ``src/`` must equal these
with the same types (``tests/test_common_records.py``,
``tests/test_dfs.py``).
"""

from typing import Mapping, Optional, Sequence


def sort_key_for(record: Mapping[str, object], fields: Sequence[str]) -> tuple:
    """Build a tuple usable as a sort/group key over ``fields``.

    Values are wrapped with their type name so heterogeneous columns (e.g.
    ``None`` mixed with ints) still compare deterministically.
    """
    key = []
    for field in fields:
        value = record.get(field)
        if value is None:
            key.append((0, ""))
        elif isinstance(value, bool):
            key.append((1, int(value)))
        elif isinstance(value, (int, float)):
            key.append((2, float(value)))
        else:
            key.append((3, str(value)))
    return tuple(key)


def record_size_bytes(record: Mapping[str, object]) -> int:
    """Rough serialized size of a record, used for byte-level dataflow stats.

    The estimate mirrors a simple text serialization: 8 bytes per numeric
    field, string length for strings, plus 2 bytes of per-field overhead.
    """
    size = 0
    for field, value in record.items():
        size += 2
        if value is None:
            size += 1
        elif isinstance(value, (int, float, bool)):
            size += 8
        else:
            size += len(str(value))
        size += len(field) // 4  # amortized field-name overhead
    return max(size, 1)


def field_range(dataset, field_name: str) -> Optional[tuple]:
    """(min, max) of a numeric field, or ``None`` if absent/non-numeric."""
    values = [
        record[field_name]
        for partition in dataset.partitions
        for record in partition.records
        if isinstance(record.get(field_name), (int, float)) and not isinstance(record.get(field_name), bool)
    ]
    if not values:
        return None
    return (min(values), max(values))
