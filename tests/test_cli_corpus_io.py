"""Tests for corpus serialization and the CLI."""

import pytest

from repro.cli import EXIT_ERROR, EXIT_OK, main
from repro.core.corpus_io import load_jsonl, load_tsv, save_jsonl, save_tsv
from repro.errors import GenerationError


class TestCorpusIO:
    def test_jsonl_roundtrip(self, patients_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_jsonl(patients_corpus, path)
        loaded = load_jsonl(path)
        assert len(loaded) == len(patients_corpus)
        for original, restored in zip(patients_corpus.pairs, loaded.pairs):
            assert restored.nl == original.nl
            assert restored.sql == original.sql
            assert restored.template_id == original.template_id
            assert restored.family == original.family
            assert restored.augmentation == original.augmentation

    def test_tsv_roundtrip_content(self, patients_corpus, tmp_path):
        path = tmp_path / "corpus.tsv"
        save_tsv(patients_corpus, path)
        loaded = load_tsv(path, schema_name="patients")
        assert len(loaded) == len(patients_corpus)
        assert loaded.pairs[0].nl == patients_corpus.pairs[0].nl
        assert loaded.pairs[0].sql == patients_corpus.pairs[0].sql

    def test_invalid_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nl": "x"}\n')
        with pytest.raises(GenerationError):
            load_jsonl(path)

    def test_invalid_tsv_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only one column\n")
        with pytest.raises(GenerationError):
            load_tsv(path)

    def test_blank_lines_skipped(self, patients_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_jsonl(patients_corpus, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_jsonl(path)) == len(patients_corpus)


class TestAtomicWrites:
    """``save_jsonl``/``save_tsv`` publish via tmp-file + rename: a
    failure mid-write must never clobber an existing file or leave a
    half-written one (or tmp litter) behind."""

    @pytest.mark.parametrize("saver", [save_jsonl, save_tsv])
    def test_failure_mid_stream_preserves_previous_file(
        self, patients_corpus, tmp_path, saver
    ):
        path = tmp_path / "corpus.out"
        saver(patients_corpus, path)
        before = path.read_bytes()

        def poisoned():
            yield patients_corpus.pairs[0]
            raise RuntimeError("producer died mid-stream")

        with pytest.raises(RuntimeError):
            saver(poisoned(), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_on_fresh_path_leaves_nothing(self, tmp_path):
        path = tmp_path / "corpus.jsonl"

        def poisoned():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        with pytest.raises(RuntimeError):
            save_jsonl(poisoned(), path)
        assert list(tmp_path.iterdir()) == []

    def test_save_returns_pair_count(self, patients_corpus, tmp_path):
        written = save_jsonl(patients_corpus, tmp_path / "c.jsonl")
        assert written == len(patients_corpus)


class TestCli:
    def test_schemas_command(self, capsys):
        assert main(["schemas"]) == 0
        out = capsys.readouterr().out
        assert "patients" in out and "geography" in out

    def test_generate_command(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        code = main(
            [
                "generate",
                "patients",
                "--output",
                str(path),
                "--size-slotfills",
                "2",
            ]
        )
        assert code == 0
        assert path.exists()
        loaded = load_jsonl(path)
        assert len(loaded) > 0

    def test_generate_tsv(self, tmp_path):
        path = tmp_path / "out.tsv"
        assert main(
            [
                "generate",
                "patients",
                "--output",
                str(path),
                "--format",
                "tsv",
                "--size-slotfills",
                "2",
            ]
        ) == 0
        assert "\t" in path.read_text().splitlines()[0]

    def test_generate_writes_manifest(self, tmp_path):
        path = tmp_path / "out.jsonl"
        assert main(
            [
                "generate",
                "patients",
                "--output",
                str(path),
                "--size-slotfills",
                "2",
            ]
        ) == EXIT_OK
        manifest = tmp_path / "out.manifest.json"
        assert manifest.exists()
        import json

        record = json.loads(manifest.read_text())
        assert record["status"] == "complete"
        assert record["shards"]

    def test_generate_resume_is_noop_and_identical(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        argv = [
            "generate",
            "patients",
            "--output",
            str(path),
            "--size-slotfills",
            "2",
        ]
        assert main(argv) == EXIT_OK
        first = path.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out
        assert "wrote 0 pairs" in out
        assert path.read_bytes() == first

    def test_no_checkpoint_skips_manifest_same_bytes(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        plain = tmp_path / "plain.jsonl"
        base = ["generate", "patients", "--size-slotfills", "2"]
        assert main(base + ["--output", str(ckpt)]) == EXIT_OK
        assert main(base + ["--output", str(plain), "--no-checkpoint"]) == EXIT_OK
        assert not (tmp_path / "plain.manifest.json").exists()
        assert plain.read_bytes() == ckpt.read_bytes()

    @pytest.mark.parametrize("mode", [[], ["--no-checkpoint"]])
    def test_resilience_flags_reach_the_shard_runner(self, tmp_path, mode, monkeypatch):
        from repro.core.parallel import SynthesisEngine

        seen = []
        iter_outcomes = SynthesisEngine.iter_outcomes

        def spy(self, workers=0, resilience=None, *args, **kwargs):
            seen.append(resilience)
            return iter_outcomes(self, workers, resilience, *args, **kwargs)

        monkeypatch.setattr(SynthesisEngine, "iter_outcomes", spy)
        argv = [
            "generate", "patients", "--size-slotfills", "2",
            "--output", str(tmp_path / "c.jsonl"),
            "--max-attempts", "5", "--shard-timeout", "30",
        ]
        assert main(argv + mode) == EXIT_OK
        assert [(r.max_attempts, r.shard_timeout) for r in seen] == [(5, 30.0)]

    @pytest.mark.parametrize("mode", [[], ["--no-checkpoint"]])
    def test_zero_max_attempts_is_refused(self, tmp_path, mode, capsys):
        output = tmp_path / "c.jsonl"
        argv = ["generate", "patients", "--output", str(output), "--max-attempts", "0"]
        assert main(argv + mode) == EXIT_ERROR
        assert "max_attempts must be >= 1" in capsys.readouterr().err
        assert not output.exists()

    def test_resume_without_checkpointing_is_an_error(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "patients",
                "--output",
                str(tmp_path / "x.jsonl"),
                "--no-checkpoint",
                "--resume",
            ]
        )
        assert code == EXIT_ERROR
        assert "--resume requires checkpointing" in capsys.readouterr().err

    def test_unknown_schema_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["generate", "nonexistent", "--output", str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_train_translate_benchmark_cycle(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"
        code = main(
            [
                "train",
                "patients",
                "--output",
                str(checkpoint),
                "--epochs",
                "2",
                "--embed-dim",
                "16",
                "--hidden-dim",
                "24",
                "--corpus-cap",
                "300",
                "--size-slotfills",
                "3",
            ]
        )
        assert code == 0
        assert checkpoint.exists()

        code = main(
            [
                "translate",
                "patients",
                "--checkpoint",
                str(checkpoint),
                "--ask",
                "how many patients are there",
            ]
        )
        assert code == 0
        assert "SQL:" in capsys.readouterr().out

        code = main(
            ["benchmark", "--checkpoint", str(checkpoint), "--category", "naive"]
        )
        assert code == 0
        assert "Accuracy" in capsys.readouterr().out
