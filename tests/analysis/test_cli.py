"""The tunio-experiments CLI: argument checks happen before any work."""

import pytest

from repro.analysis import cli


@pytest.fixture
def figure_calls(monkeypatch):
    """Replace every figure with a recorder, so a test can tell whether
    the CLI started any work (agent training starts inside a figure)."""
    calls = []
    for name in list(cli._FIGURES):
        _fn, parameterized = cli._FIGURES[name]
        monkeypatch.setitem(
            cli._FIGURES, name,
            (lambda name=name, **kwargs: calls.append(name), parameterized),
        )
    return calls


def test_list_prints_the_figures_and_runs_nothing(figure_calls, capsys):
    assert cli.main(["--list"]) == 0
    assert capsys.readouterr().out.split() == list(cli._FIGURES)
    assert figure_calls == []


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["fig99"], "unknown figure", id="unknown-figure"),
        pytest.param(
            ["fig09", "--iterations", "0"], "--iterations must be >= 1",
            id="iterations-0",
        ),
        pytest.param(
            ["fig09", "--iterations", "-5"], "--iterations must be >= 1",
            id="iterations-negative",
        ),
        pytest.param(["fig09", "--seed", "-1"], "--seed must be >= 0", id="seed-negative"),
    ],
)
def test_bad_arguments_exit_2_before_any_work(figure_calls, capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert figure_calls == []


def test_fig12_alone_runs_figure_11_at_the_given_budget(capsys):
    def fig12_section(argv):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        return out[out.index("Figure 12"):]

    alone = fig12_section(["fig12", "--iterations", "8"])
    assert alone == fig12_section(["fig11", "fig12", "--iterations", "8"])
