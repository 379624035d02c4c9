"""The JSON Schema subset the export validators interpret.

check_trace.py and check_timeseries.py check exports against small
checked-in schemas (tools/trace_schema.json and the "json" block of
tools/timeseries_schema.json). CI has no jsonschema package, so this module
interprets the draft-07 keywords those schemas use -- type, required,
properties, items, enum, minimum -- and nothing else. Stdlib only.
"""

# Violations reported per document; a broken export yields thousands.
MAX_ERRORS = 50

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def validate(value, schema, path, errors):
    """Checks `value` against the schema subset; appends messages to errors."""
    if len(errors) >= MAX_ERRORS:
        return
    expected = schema.get("type")
    if expected is not None and not TYPE_CHECKS[expected](value):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} below minimum {schema['minimum']}")
    if isinstance(value, dict):
        for req in schema.get("required", ()):
            if req not in value:
                errors.append(f"{path}: missing required key '{req}'")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)
