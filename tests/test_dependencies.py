import os
import subprocess
import sys


def test_import_loads_no_scipy():
    code = (
        "import sys\n"
        "import lacuna\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_private_names_imported_across_modules():
    """No lacuna module imports a leading-underscore name from another."""
    import ast
    from pathlib import Path

    import lacuna

    offenders = []
    for path in sorted(Path(lacuna.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("lacuna"):
                continue
            offenders += [
                f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []


def test_only_sequences_reads_the_stored_recurrence_layout():
    """The checkpoint layout of a stored recurrence stays in
    lacuna.sequences: no other module reads .checkpoints, .stride or
    .steps."""
    import ast
    from pathlib import Path

    import lacuna

    layout = {"checkpoints", "stride", "steps"}
    offenders = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(Path(lacuna.__file__).parent.glob("*.py"))
        if path.name != "sequences.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in layout
    ]
    assert offenders == []


def test_every_error_code_has_a_raise_site():
    """Each LacunaError subclass in lacuna.errors is named in some raise
    statement of src/lacuna, so no error code outlives its last raise."""
    import ast
    import inspect
    from pathlib import Path

    import lacuna
    from lacuna import errors

    raised = {
        name.id if isinstance(name, ast.Name) else name.attr
        for path in sorted(Path(lacuna.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
        for name in ast.walk(node.exc)
        if isinstance(name, (ast.Name, ast.Attribute))
    }
    classes = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.LacunaError) and cls is not errors.LacunaError
    }
    assert sorted(classes - raised) == []
