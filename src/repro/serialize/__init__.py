"""Rendering (paper-figure layout), JSON/CSV serialization and content
digests."""

from repro.serialize.csvio import (
    instance_from_csv_dict,
    instance_to_csv_dict,
    relation_from_csv,
    relation_to_csv,
)
from repro.serialize.digest import (
    chase_request_digest,
    instance_digest,
    setting_digest,
)
from repro.serialize.jsonio import (
    concrete_fact_from_json,
    concrete_fact_to_json,
    concrete_instance_from_json,
    concrete_instance_to_json,
    dumps,
    instance_from_json,
    instance_to_json,
    loads,
    setting_from_json,
    setting_to_json,
    term_from_json,
    term_to_json,
)
from repro.serialize.render import (
    render_abstract_snapshots,
    render_concrete_instance,
    render_concrete_relation,
    render_snapshot,
    render_table,
)

__all__ = [
    "chase_request_digest",
    "instance_digest",
    "setting_digest",
    "instance_from_csv_dict",
    "instance_to_csv_dict",
    "relation_from_csv",
    "relation_to_csv",
    "concrete_fact_from_json",
    "concrete_fact_to_json",
    "concrete_instance_from_json",
    "concrete_instance_to_json",
    "dumps",
    "instance_from_json",
    "instance_to_json",
    "loads",
    "setting_from_json",
    "setting_to_json",
    "term_from_json",
    "term_to_json",
    "render_abstract_snapshots",
    "render_concrete_instance",
    "render_concrete_relation",
    "render_snapshot",
    "render_table",
]
