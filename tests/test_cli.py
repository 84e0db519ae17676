import csv
import json
import math
import random

import pytest

import parsemunge as pm
from parsemunge.cli import main
from parsemunge.tidytable import TidyTable, load_csv, write_csv

from .helpers import FORMAT_4_OR19, random_text_cell, retyped
from .oracles import reference_write_csv


def _write_train(tmp_path, rows=30, seed=4):
    rnd = random.Random(seed)
    table = TidyTable(
        headers=["col1", "col2", "num"],
        columns=[
            [rnd.choice(["a", "b", "c"]) for _ in range(rows)],
            [random_text_cell(rnd) for _ in range(rows)],
            [float(rnd.randint(0, 50)) for _ in range(rows)],
        ],
    )
    path = tmp_path / "train.csv"
    write_csv(table, path)
    return path, table


def _plan_of(doc, header):
    """The serialized plan of source ``header``."""
    return next(plan for plan in doc["per_source"] if plan["header"] == header)


def _config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _write_overflowing(tmp_path):
    path = tmp_path / "overflowing.csv"
    write_csv(TidyTable(["col1"], [["zip " + "9" * 400, "zip 94107", "zip -3", None]]), path)
    return path


def _finite_column(path, header):
    with open(path, newline="", encoding="utf-8") as fh:
        cells = [row[header] for row in csv.DictReader(fh)]
    return all(math.isfinite(float(cell)) for cell in cells)


class TestCmdFit:
    def test_assigncat_or19(self, tmp_path):
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, {"assigncat": {"or19": ["col2"]}})
        out = tmp_path / "out"
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(out)]) == 0
        artifact = json.loads((out / "artifact.pmz.json").read_text())
        assert _plan_of(artifact, "col2")["root"] == "or19"
        assert (out / "train_encoded.csv").exists()
        assert (out / "fit_report.txt").exists()

    def test_overflowing_extraction_exits_0(self, tmp_path):
        # 400 nines extract as the largest float, so every nmbr output is finite.
        config = _config(tmp_path, {"assigncat": {"nmcm": ["col1"]}})
        out = tmp_path / "out"
        assert main(["fit", str(_write_overflowing(tmp_path)), "--config", str(config),
                     "--out-dir", str(out)]) == 0
        assert _finite_column(out / "train_encoded.csv", "col1_nmcm_nmbr")

    def test_no_config_auto_roots(self, tmp_path):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", str(train), "--out-dir", str(out)]) == 0
        artifact = json.loads((out / "artifact.pmz.json").read_text())
        assert _plan_of(artifact, "num")["root"] == "nmbr"

    def test_unknown_category_exit_2(self, tmp_path, capsys):
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, {"assigncat": {"qq": ["col1"]}})
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "qq" in capsys.readouterr().err

    @pytest.mark.parametrize("columns", [[], ["missing"]])
    def test_unknown_category_checked_first_exit_2(self, tmp_path, capsys, columns):
        """Before any header is looked up, and even when it names no column."""
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, {"assigncat": {"qq": columns}})
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "unknown transformation category 'qq'" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path):
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, {"bogus": 1})
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_test_set_encoded_alongside(self, tmp_path):
        train, table = _write_train(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", str(train), "--test", str(train),
                     "--out-dir", str(out)]) == 0
        train_enc = (out / "train_encoded.csv").read_bytes()
        test_enc = (out / "test_encoded.csv").read_bytes()
        assert train_enc == test_enc

    def test_threshold_flag(self, tmp_path):
        path = tmp_path / "train.csv"
        rows = "\n".join(f"e{i}" for i in range(10))
        path.write_text(f"a\n{rows}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["fit", str(path), "--out-dir", str(out), "--threshold", "5"]) == 0
        artifact = json.loads((out / "artifact.pmz.json").read_text())
        assert _plan_of(artifact, "a")["root"] == "ord3"

    def test_deterministic_artifacts(self, tmp_path):
        train, _ = _write_train(tmp_path)
        blobs = []
        for name in ("o1", "o2"):
            assert main(["fit", str(train), "--out-dir", str(tmp_path / name),
                         "--seed", "5"]) == 0
            blobs.append((tmp_path / name / "artifact.pmz.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestCmdApply:
    def test_replay_on_train(self, tmp_path):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        main(["fit", str(train), "--out-dir", str(out)])
        dest = tmp_path / "replay.csv"
        assert main(["apply", str(out / "artifact.pmz.json"), str(train),
                     "--out", str(dest)]) == 0
        assert dest.read_bytes() == (out / "train_encoded.csv").read_bytes()

    def test_overflowing_extraction_exits_0(self, tmp_path):
        # 400 nines extract as the largest float, so every nmbr output is finite.
        config = _config(tmp_path, {"assigncat": {"nmcm": ["col1"]}})
        small = tmp_path / "small.csv"
        write_csv(TidyTable(["col1"], [["zip 1", "zip 94107", "zip 3"]]), small)
        main(["fit", str(small), "--config", str(config), "--out-dir", str(tmp_path / "out")])
        dest = tmp_path / "applied.csv"
        assert main(["apply", str(tmp_path / "out" / "artifact.pmz.json"),
                     str(_write_overflowing(tmp_path)), "--out", str(dest)]) == 0
        assert _finite_column(dest, "col1_nmcm_nmbr")

    def test_drift_summary_printed(self, tmp_path, capsys):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        main(["fit", str(train), "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["apply", str(out / "artifact.pmz.json"), str(train),
                     "--out", str(tmp_path / "r.csv"), "--drift"]) == 0
        assert "drift" in capsys.readouterr().out

    def test_drift_type_change_printed(self, tmp_path, capsys):
        train, table = _write_train(tmp_path)
        out = tmp_path / "out"
        main(["fit", str(train), "--out-dir", str(out)])
        text_num = tmp_path / "text_num.csv"
        write_csv(TidyTable(headers=table.headers,
                            columns=table.columns[:2] + [["n/a"] * table.row_count]), text_num)
        capsys.readouterr()
        assert main(["apply", str(out / "artifact.pmz.json"), str(text_num),
                     "--out", str(tmp_path / "r.csv"), "--drift"]) == 0
        assert "drift num: type numeric -> categoric" in capsys.readouterr().out

    def test_missing_column_exit_3(self, tmp_path):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        main(["fit", str(train), "--out-dir", str(out)])
        bad = tmp_path / "bad.csv"
        bad.write_text("other\n1\n", encoding="utf-8")
        assert main(["apply", str(out / "artifact.pmz.json"), str(bad),
                     "--out", str(tmp_path / "r.csv")]) == 3

    @pytest.mark.parametrize("text", [
        "col1\n" + "x" * 131_073 + "\n",
        "col1\n\"x\n",
        "col1\n\"x\"y\n",
    ], ids=["oversized-field", "open-quote-at-end", "text-after-closing-quote"])
    def test_malformed_csv_exit_3(self, tmp_path, capsys, text):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        main(["fit", str(train), "--out-dir", str(out)])
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["fit", str(bad), "--out-dir", str(tmp_path / "refit")]) == 3
        assert main(["apply", str(out / "artifact.pmz.json"), str(bad),
                     "--out", str(tmp_path / "r.csv")]) == 3
        err = capsys.readouterr().err
        assert err.count(f"data error: {bad}: malformed CSV at line 2:") == 2

    def test_not_utf8_csv_exit_3(self, tmp_path, capsys):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        main(["fit", str(train), "--out-dir", str(out)])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"col1\n\xff\xfe\n")
        capsys.readouterr()
        assert main(["fit", str(bad), "--out-dir", str(tmp_path / "refit")]) == 3
        assert main(["apply", str(out / "artifact.pmz.json"), str(bad),
                     "--out", str(tmp_path / "r.csv")]) == 3
        err = capsys.readouterr().err
        assert err.count(f"data error: {bad}: not UTF-8: byte 0xff") == 2

    def test_malformed_artifact_exit_3(self, tmp_path, capsys):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        main(["fit", str(train), "--out-dir", str(out)])
        blob = out / "artifact.pmz.json"
        doc = json.loads(blob.read_text(encoding="utf-8"))
        del _plan_of(doc, "col1")["steps"][0]["retained"]
        blob.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["apply", str(blob), str(train), "--out", str(tmp_path / "r.csv")]) == 3
        assert "retained" in capsys.readouterr().err

    def test_format_4_artifact_exit_3(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        write_csv(TidyTable(["col2"], [["123 Main St 94107", "1 Elm St 94110"]]), train)
        assert main(["apply", str(FORMAT_4_OR19), str(train),
                     "--out", str(tmp_path / "r.csv")]) == 3
        assert "format_version 4, expected 5" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_bad_registry_snapshot_exit_3(self, tmp_path, capsys):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        main(["fit", str(train), "--out-dir", str(out)])
        blob = out / "artifact.pmz.json"
        doc = json.loads(blob.read_text(encoding="utf-8"))
        # the artifact holds no registry snapshot: a leftover one is an unknown key
        doc["registry_snapshot"] = {"trees": {}, "entries": {}, "aliases": {}}
        blob.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["apply", str(blob), str(train), "--out", str(tmp_path / "r.csv")]) == 3
        assert "registry_snapshot" in capsys.readouterr().err


class TestCmdInvert:
    def test_round_trip(self, tmp_path):
        train, table = _write_train(tmp_path)
        out = tmp_path / "out"
        config = _config(tmp_path, {"assigncat": {"ord3": ["col1", "col2"]}})
        main(["fit", str(train), "--config", str(config), "--out-dir", str(out)])
        dest = tmp_path / "recovered.csv"
        assert main(["invert", str(out / "artifact.pmz.json"),
                     str(out / "train_encoded.csv"), "--out", str(dest)]) == 0
        recovered = load_csv(dest)
        assert recovered.column("col1") == table.column("col1")
        assert recovered.column("col2") == table.column("col2")

    def test_lossy_source_listed(self, tmp_path, capsys):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        config = _config(tmp_path, {"assigncat": {"splt": ["col2"]}})
        main(["fit", str(train), "--config", str(config), "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["invert", str(out / "artifact.pmz.json"),
                     str(out / "train_encoded.csv"),
                     "--out", str(tmp_path / "r.csv")]) == 0
        assert "non-invertible" in capsys.readouterr().err

    def test_junk_code_exit_3(self, tmp_path, capsys):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        config = _config(tmp_path, {"assigncat": {"ord3": ["col1"]}})
        main(["fit", str(train), "--config", str(config), "--out-dir", str(out)])
        encoded = load_csv(out / "train_encoded.csv")
        encoded.columns[encoded.headers.index("col1_ord3")][3] = "junk"
        write_csv(encoded, tmp_path / "junk.csv")
        capsys.readouterr()
        assert main(["invert", str(out / "artifact.pmz.json"), str(tmp_path / "junk.csv"),
                     "--out", str(tmp_path / "r.csv")]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "['junk']" in err

    def test_bad_artifact_exit_3(self, tmp_path):
        blob = tmp_path / "artifact.pmz.json"
        blob.write_text("{}", encoding="utf-8")
        csv = tmp_path / "x.csv"
        csv.write_text("a\n1\n", encoding="utf-8")
        assert main(["invert", str(blob), str(csv),
                     "--out", str(tmp_path / "r.csv")]) == 3


class TestCmdImportance:
    def _labelled_csv(self, tmp_path):
        rnd = random.Random(8)
        rows = 200
        informative = [rnd.choice(["red", "green", "blue", "gray"]) for _ in range(rows)]
        labels = ["hot" if c in ("red", "green") else "cold" for c in informative]
        noise = [rnd.choice(["n1", "n2", "n3"]) for _ in range(rows)]
        table = TidyTable(headers=["informative", "noise", "target"],
                          columns=[informative, noise, labels])
        path = tmp_path / "train.csv"
        write_csv(table, path)
        return path

    def test_informative_ranked_first(self, tmp_path):
        train = self._labelled_csv(tmp_path)
        out = tmp_path / "imp"
        assert main(["importance", str(train), "--labels", "target",
                     "--out-dir", str(out), "--seed", "2"]) == 0
        report = json.loads((out / "importance.json").read_text())
        assert report["metric1"]["informative"] > report["metric1"]["noise"]
        table_text = (out / "importance.txt").read_text()
        assert table_text.index("informative") < table_text.index("noise")

    def test_missing_labels_exit_2(self, tmp_path):
        train = self._labelled_csv(tmp_path)
        assert main(["importance", str(train),
                     "--out-dir", str(tmp_path / "imp")]) == 2

    @pytest.mark.parametrize("flags, doc", [
        (["--seed", "-1"], None),
        ([], {"seed": -1}),
        ([], {"valpercent": 1e308}),
        ([], {"valpercent": 0}),
        ([], {"valpercent": 1}),
    ])
    def test_out_of_range_argument_exit_2(self, tmp_path, capsys, flags, doc):
        train = self._labelled_csv(tmp_path)
        if doc is not None:
            flags = flags + ["--config", str(_config(tmp_path, doc))]
        assert main(["importance", str(train), "--labels", "target",
                     "--out-dir", str(tmp_path / "imp"), *flags]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_valpercent_error_names_valpercent(self, tmp_path, capsys):
        train = self._labelled_csv(tmp_path)
        config = _config(tmp_path, {"valpercent": 0})
        assert main(["importance", str(train), "--labels", "target", "--config", str(config),
                     "--out-dir", str(tmp_path / "imp")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: config['valpercent'] must lie strictly between 0 and 1, "
            "not 0\n")

    def test_fixed_seed_identical_outputs(self, tmp_path):
        train = self._labelled_csv(tmp_path)
        blobs = []
        for name in ("i1", "i2"):
            assert main(["importance", str(train), "--labels", "target",
                         "--out-dir", str(tmp_path / name), "--seed", "3"]) == 0
            blobs.append((tmp_path / name / "importance.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigDocument:
    def test_transformdict_override(self, tmp_path):
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, {
            "assigncat": {"or19": ["col2"]},
            "transformdict": {
                "nmc8": {"parents": ["nmc8"], "cousins": ["NArw"],
                         "children": ["ord3"]}
            },
        })
        out = tmp_path / "out"
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(out)]) == 0
        encoded = load_csv(out / "train_encoded.csv")
        assert "col2_UPCS_nmc7_ord3" in encoded.headers
        assert "col2_UPCS_nmc7_nmbr" not in encoded.headers

    def test_processdict_new_category(self, tmp_path):
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, {
            "assigncat": {"myrt": ["col1"]},
            "transformdict": {"myrt": {"parents": ["myrt"], "cousins": ["NArw"]}},
            "processdict": {"myrt": {"behavior": "ord3"}},
        })
        out = tmp_path / "out"
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(out)]) == 0
        encoded = load_csv(out / "train_encoded.csv")
        assert "col1_ord3" in encoded.headers

    def test_dangling_override_exit_2(self, tmp_path):
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, {
            "transformdict": {"ord3": {"parents": ["qqqq"]}},
        })
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_top_level_srch_block(self, tmp_path):
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, {
            "assigncat": {"srch": ["col2"]},
            "srch": {"col2": {"search": ["chrome", "mac"]}},
        })
        out = tmp_path / "out"
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(out)]) == 0
        encoded = load_csv(out / "train_encoded.csv")
        assert "col2_srch_chrome" in encoded.headers

    def test_assigninfill_block(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text('a\n1\n""\n3\n', encoding="utf-8")
        config = _config(tmp_path, {
            "assigncat": {"mnmx": ["a"]},
            "assigninfill": {"zeroinfill": ["a"]},
        })
        out = tmp_path / "out"
        assert main(["fit", str(path), "--config", str(config),
                     "--out-dir", str(out)]) == 0
        encoded = load_csv(out / "train_encoded.csv")
        assert encoded.column("a_mnmx") == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("doc, where", [
        ({"assigncat": {"ord3": 5}}, "config['assigncat']['ord3'] must be a list"),
        ({"assigninfill": {"meaninfill": 5}}, "config['assigninfill']['meaninfill'] must be a list"),
        ({"transformdict": {"zz": {"parents": 5}}},
         "config['transformdict']['zz']['parents'] must be a list"),
        ({"threshold": "x"}, "config['threshold'] must be an integer, not text"),
    ])
    def test_mistyped_value_exit_2(self, tmp_path, capsys, doc, where):
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, doc)
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert f"configuration error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, where", [
        ({"assigncat": {"splt": ["col1"]}, "assignparam": {"splt": {"col1": 5}}},
         "assignparam['splt']['col1'] must be an object"),
        ({"assigncat": {"splt": ["col1"]}, "assignparam": {"splt": {"col1": {"min_len": "x"}}}},
         "assignparam['splt']['col1']['min_len'] must be an integer, not text"),
        ({"assigncat": {"srch": ["col2"]}, "srch": {"col2": {"search": 5}}},
         "config['srch']['col2']['search'] must be a list, not an integer"),
        ({"assigncat": {"or19": ["col2"]}, "assignparam": {"UPCS": {"col2": {"enabled": "false"}}}},
         "assignparam['UPCS']['col2']['enabled'] must be a boolean, not text"),
    ])
    def test_mistyped_transform_parameter_exit_2(self, tmp_path, capsys, doc, where):
        train, _ = _write_train(tmp_path)
        config = _config(tmp_path, doc)
        assert main(["fit", str(train), "--config", str(config),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert f"configuration error: {where}" in capsys.readouterr().err

    def test_retyped_values_exit_0_2_or_3(self, tmp_path):
        """Every value of a config that sets every key, swapped in turn for
        each probe value of another JSON type: fit exits 0, 2 or 3 and never
        raises."""
        path = tmp_path / "train.csv"
        write_csv(TidyTable(headers=["col1", "col2", "num", "y"], columns=[
            ["ab cd", "ab ce", "zz cd", None], ["chrome 62", "mac 10", "lynx", "chrome 49"],
            [1.0, None, 3.0, 2.0], ["p", "q", "p", "q"],
        ]), path)
        doc = {
            "assigncat": {"splt": ["col1"], "srch": ["col2"], "myrt": ["num"]},
            "assignparam": {"global_assignparam": {"min_len": 2},
                            "default_assignparam": {"splt": {"min_len": 2}},
                            "splt": {"col1": {"space_and_punctuation": False}}},
            "assigninfill": {"meaninfill": ["num"]},
            "transformdict": {"myrt": {"parents": ["myrt"], "cousins": ["NArw"]}},
            "processdict": {"myrt": {"behavior": "nmbr", "suffix": "mine"}},
            "labels_column": "y",
            "seed": 3,
            "threshold": 255,
            "valpercent": 0.2,
            "srch": {"col2": {"search": ["chrome", "mac"]}},
            "shuffletrain": True,
        }
        args = ["fit", str(path), "--config", str(tmp_path / "config.json"),
                "--out-dir", str(tmp_path / "o")]
        _config(tmp_path, doc)
        assert main(args) == 0
        escapes, count = [], 0
        for where, probe in retyped(doc):
            count += 1
            _config(tmp_path, doc)
            try:
                code = main(args)
            except Exception as exc:  # noqa: BLE001 - every escape is the failure
                escapes.append(f"{where} = {probe!r}: {type(exc).__name__}: {exc}")
            else:
                if code not in (0, 2, 3):
                    escapes.append(f"{where} = {probe!r}: exit {code}")
        assert not escapes, f"{len(escapes)} of {count} escaped, first: {escapes[:5]}"

    def test_labels_column_config(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("a,y\nx,p\nz,q\n", encoding="utf-8")
        config = _config(tmp_path, {"labels_column": "y"})
        out = tmp_path / "out"
        assert main(["fit", str(path), "--config", str(config),
                     "--out-dir", str(out)]) == 0
        assert (out / "train_labels.csv").exists()
        encoded = load_csv(out / "train_encoded.csv")
        assert all(not h.startswith("y") for h in encoded.headers)


class TestCmdInspect:
    def test_summary(self, tmp_path, capsys):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        main(["fit", str(train), "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["inspect", str(out / "artifact.pmz.json")]) == 0
        text = capsys.readouterr().out
        assert "source columns: 3" in text

    def test_prints_the_fit_report(self, tmp_path, capsys):
        train, _ = _write_train(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", str(train), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out / "artifact.pmz.json")]) == 0
        artifact = pm.deserialize((out / "artifact.pmz.json").read_bytes())
        report = (out / "fit_report.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == (
            f"format_version: {artifact.format_version}\nsource columns: 3\n"
            f"output columns: {len(artifact.output_order)}\n{report}")


def test_written_csvs_match_the_cell_by_cell_writer(tmp_path):
    """fit --test, apply and invert write the bytes the reference writer makes
    of the same in-memory tables: text passthrough, quoting and -0 (kept in
    the labels file; fit keys both zeros of a source as one value)."""
    rnd = random.Random(3)
    rows = 40
    zeros = [-0.0, 0.0, 2.5, -7.0, 1e17, None]
    train = TidyTable(headers=["note", "num", "cat", "y"], columns=[
        [rnd.choice(['say "hi", then go', "a,b", "plain", None]) for _ in range(rows)],
        [rnd.choice(zeros) for _ in range(rows)],
        [rnd.choice(['x "1"', "y,2", "z"]) for _ in range(rows)],
        [rnd.choice(zeros) for _ in range(rows)],
    ])
    write_csv(train, tmp_path / "train.csv")
    assignments = {"note": "excl", "cat": "ord3"}
    config = _config(tmp_path, {"assigncat": {"excl": ["note"], "ord3": ["cat"]},
                                "labels_column": "y"})
    out = tmp_path / "out"
    assert main(["fit", str(tmp_path / "train.csv"), "--test", str(tmp_path / "train.csv"),
                 "--config", str(config), "--out-dir", str(out)]) == 0
    assert main(["apply", str(out / "artifact.pmz.json"), str(tmp_path / "train.csv"),
                 "--out", str(tmp_path / "applied.csv")]) == 0
    assert main(["invert", str(out / "artifact.pmz.json"), str(out / "train_encoded.csv"),
                 "--out", str(tmp_path / "recovered.csv")]) == 0

    loaded = load_csv(tmp_path / "train.csv")
    encoded, artifact = pm.fit(loaded, assignments, opts=pm.Options(labels_column="y"))
    recovered, _ = pm.invert(artifact, load_csv(out / "train_encoded.csv"))
    labels = TidyTable(headers=["y"], columns=[loaded.column("y")])
    with open(out / "train_labels.csv", newline="", encoding="utf-8") as fh:
        assert "-0" in {row[0] for row in csv.reader(fh)}
    for written, table in [(out / "train_encoded.csv", encoded),
                           (out / "train_labels.csv", labels),
                           (out / "test_encoded.csv", pm.apply(artifact, loaded)),
                           (tmp_path / "applied.csv", pm.apply(artifact, loaded)),
                           (tmp_path / "recovered.csv", recovered)]:
        reference_write_csv(table, tmp_path / "reference.csv")
        assert written.read_bytes() == (tmp_path / "reference.csv").read_bytes(), written.name
