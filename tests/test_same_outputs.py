import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("same_outputs", Path(__file__).parents[1] / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

CSV = ('group,S,n,bound,wall_ms\r\n'
       'Z2xZ6,"(1,0),(0,1)",0,0.0,{}\r\n'
       'Z2xZ6,"(1,0),(0,1)",1,1.1447142425533317,{}\r\n')
JSON = '{{\n  "stats": {{\n    "subsets_enumerated": 2047,\n    "wall_ms": {}\n  }},\n  "wall_ms": {}\n}}\n'


def test_masks_wall_ms_and_nothing_else():
    masked = same_outputs.masked
    assert masked("p.csv", CSV.format(1.25, 1.25)) == masked("p.csv", CSV.format(0.5, 3e-05))
    assert masked("p.csv", CSV.format(1.25, 1.25)) == CSV.format("*", "*")
    assert masked("r.json", JSON.format(1.25, 7)) == masked("r.json", JSON.format(0.5, 3e-05))
    assert masked("r.json", JSON.format(1.25, 7)) == JSON.format("*", "*")
    # a change beside wall_ms, a quoted comma or a line end still shows
    assert masked("p.csv", CSV.format(1, 1)) != masked("p.csv", CSV.format(1, 1).replace("1.14", "1.15"))
    assert masked("p.csv", CSV.format(1, 1)) != masked("p.csv", CSV.format(1, 1).replace('"(1,0)', '"(1;0)'))
    assert masked("p.csv", CSV.format(1, 1)) != masked("p.csv", CSV.format(1, 1).replace("\r\n", "\n"))
    assert masked("r.json", JSON.format(1, 1)) != masked("r.json", JSON.format(1, 1).replace("2047", "2048"))


def test_a_bad_rev_prints_one_error_line(capsys):
    assert same_outputs.main(["no-such-rev-anywhere"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: git archive no-such-rev-anywhere src: ") and err.count("\n") == 1
