"""JSON artifacts: each is encoded once and written in one pass."""

from __future__ import annotations

import json


def write_json(path, payload: dict, config_hash: str | None = None) -> dict:
    """Write payload indented by 2, with config_hash as its last key when
    given (the run's stamp).  Returns payload unstamped."""
    stamped = payload if config_hash is None else {**payload, "config_hash": config_hash}
    with open(path, "w") as fh:
        fh.write(json.dumps(stamped, indent=2))
    return payload
