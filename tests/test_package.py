"""The package's public surface is exactly what README documents."""

import re
from pathlib import Path

import textomp

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_exports():
    """Backticked names of the bullet list that opens README's Library
    section."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    listing = library.split("\n\n")[1]  # the paragraph after the lead line
    return re.findall(r"`(\w+)`", listing)


def test_every_export_resolves_once():
    assert len(textomp.__all__) == len(set(textomp.__all__))
    missing = [name for name in textomp.__all__
               if not hasattr(textomp, name)]
    assert not missing


def test_exports_are_the_names_readme_documents():
    documented = documented_exports()
    assert len(documented) == len(set(documented))
    assert set(documented) == set(textomp.__all__)
