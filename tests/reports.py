"""Helpers for comparing suite reports."""


def strip_timing(doc):
    """``doc`` without its ``elapsed_ms`` fields, at any depth."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items()
                if k != "elapsed_ms"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc
