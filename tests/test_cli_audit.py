"""The ``audit`` subcommand and the output-clobber guard.

Every CLI flag that names an output file must refuse to overwrite an
existing file unless ``--force`` — including the paths added in this
layer (``audit --json``, ``pa -o``, ``compile --image-out``).
"""

import json

import pytest

from repro.cli import main
from repro.verify.absint import AUDIT_SCHEMA


@pytest.fixture
def clean_asm(tmp_path):
    path = tmp_path / "clean.s"
    path.write_text(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            push {r4, lr}
            mov r4, #7
            mov r0, r4
            pop {r4, pc}
        """
    )
    return str(path)


@pytest.fixture
def clobber_asm(tmp_path):
    path = tmp_path / "clobber.s"
    path.write_text(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            push {lr}
            mov r0, #7
            str r0, [sp]
            pop {pc}
        """
    )
    return str(path)


@pytest.fixture
def mini_c(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(
        "int main() { print_int(6 * 7); print_nl(0); return 0; }"
    )
    return str(path)


def test_audit_text_output(clean_asm, capsys):
    assert main(["audit", clean_asm, "--assembly"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("audit: ")
    assert "f: net=0 height=known" in out
    assert "fragile=no" in out


def test_audit_json_to_stdout(clean_asm, capsys):
    assert main(["audit", clean_asm, "--assembly", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == AUDIT_SCHEMA
    assert payload["ok"] is True
    assert payload["source"] == clean_asm
    assert "f" in payload["functions"]


def test_audit_json_dash_is_stdout_not_a_path(clean_asm, tmp_path,
                                              monkeypatch, capsys):
    """``--json -`` writes stdout: a file named ``-`` is no clobber."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_text("keep")
    assert main(["audit", clean_asm, "--assembly", "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == AUDIT_SCHEMA
    assert (tmp_path / "-").read_text() == "keep"


def test_audit_exit_1_on_proven_clobber(clobber_asm, capsys):
    assert main(["audit", clobber_asm, "--assembly"]) == 1
    out = capsys.readouterr().out
    assert "retaddr-clobber" in out


@pytest.mark.parametrize("body, kind", [
    ("    push {r4, lr}\n    cmp r0, #0\n    beq other\n"
     "    pop {r4, pc}\nother:\n    push {r5}\n    pop {r4, pc}\n",
     "return-height-mismatch"),
    ("    push {r4, lr}\n    cmp r0, #0\n    pusheq {r4}\n"
     "    pop {r4, pc}\n",
     "height-mismatch"),
], ids=["two-returns", "cond-push"])
def test_audit_exit_1_on_an_unbalanced_stack(body, kind, tmp_path, capsys):
    path = tmp_path / "unbalanced.s"
    path.write_text("_start:\n    bl f\n    mov r0, #0\n    swi #0\n"
                    "f:\n" + body)
    assert main(["audit", str(path), "--assembly"]) == 1
    assert f"[{kind}] f, block" in capsys.readouterr().out


def test_audit_json_file_and_clobber_guard(clean_asm, tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert main(["audit", clean_asm, "--assembly",
                 "--json", str(out)]) == 0
    first = out.read_bytes()
    assert json.loads(first)["schema"] == AUDIT_SCHEMA

    with pytest.raises(SystemExit) as exc:
        main(["audit", clean_asm, "--assembly", "--json", str(out)])
    assert "refusing to overwrite" in str(exc.value)
    assert out.read_bytes() == first

    assert main(["audit", clean_asm, "--assembly",
                 "--json", str(out), "--force"]) == 0


def test_audit_json_missing_directory_rejected(clean_asm, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["audit", clean_asm, "--assembly",
              "--json", str(tmp_path / "nope" / "audit.json")])
    assert "does not exist" in str(exc.value)


def test_pa_output_clobber_guard(clean_asm, tmp_path, capsys):
    out = tmp_path / "compacted.s"
    out.write_text("sentinel\n")
    with pytest.raises(SystemExit) as exc:
        main(["pa", clean_asm, "--assembly", "-o", str(out)])
    assert "refusing to overwrite" in str(exc.value)
    assert out.read_text() == "sentinel\n"

    assert main(["pa", clean_asm, "--assembly", "-o", str(out),
                 "--force"]) in (0, 1)
    assert out.read_text() != "sentinel\n"


def test_compile_image_out_clobber_guard(mini_c, tmp_path, capsys):
    img = tmp_path / "prog.img"
    img.write_bytes(b"sentinel")
    with pytest.raises(SystemExit) as exc:
        main(["compile", mini_c, "--image-out", str(img)])
    assert "refusing to overwrite" in str(exc.value)
    assert img.read_bytes() == b"sentinel"

    assert main(["compile", mini_c, "--image-out", str(img),
                 "--force"]) == 0
    assert img.read_bytes() != b"sentinel"


def test_pa_sanitize_ok_run_is_clean(clean_asm, capsys):
    code = main(["pa", clean_asm, "--assembly", "--sanitize"])
    assert code in (0, 1)  # 1 = nothing abstracted, never 2
    err = capsys.readouterr().err
    assert "SANITIZER FAILED" not in err
