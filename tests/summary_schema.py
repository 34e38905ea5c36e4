"""The packaged summary schema, the documented contract of every
command's stdout summary.  The CLI does not check it at run time; the
tests do, so jsonschema is a test dependency only."""

import importlib.resources
import json

import jsonschema


def load_schema() -> dict:
    path = importlib.resources.files("railsim").joinpath("schemas/summary.json")
    return json.loads(path.read_text())


def validate(summary) -> None:
    jsonschema.validate(summary, load_schema(),
                        cls=jsonschema.Draft202012Validator)
