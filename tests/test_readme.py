"""The README's Library block runs as written, and each ``# value`` comment
is the ``repr`` of the expression it follows."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def test_library_block_values_are_the_comments():
    namespace: dict = {}
    checked = []
    for line in library_block():
        code, commented, value = line.partition("#")
        if commented:
            assert repr(eval(code, namespace)) == value.strip(), line
            checked.append(code.strip())
        else:
            exec(line, namespace)
    assert checked == [
        "prof.hodge",
        "prof.nearby_zero.entries",
        "prof.vanishing_finite.entries",
        "profile_recursive(params).degrees",
        "verify_cross_engine(params).agree",
    ]
