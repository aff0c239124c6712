from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_texts():
    texts = {p.stem: p.read_text(encoding="utf-8")
             for p in sorted(FIXTURES.glob("*.catb"))}
    from catbound.dsl import prelude_path
    texts["prelude"] = prelude_path().read_text(encoding="utf-8")
    return texts


@pytest.fixture(autouse=True)
def cold_process():
    """Each test starts as a fresh process would: nothing an earlier
    test loaded or built a parser for is kept."""
    from catbound import cli, dsl
    dsl._kept_loads.clear()
    cli._subcommand_parser.cache_clear()
    cli._build_parser.cache_clear()
