"""Unit tests for run manifests (repro.obs.manifest)."""

import json

import pytest

from repro.obs import build_manifest, stamp, validate_manifest
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, git_rev, manifest_json

pytestmark = pytest.mark.obs


def _manifest(**overrides):
    manifest = build_manifest(config={"bench": "x", "sites": 3},
                              sampling={"repeats": 10}, seeds=[21],
                              workers=2, wall_time_s=1.234)
    manifest.update(overrides)
    return manifest


class TestBuild:
    def test_required_fields_present_and_valid(self):
        manifest = _manifest()
        assert validate_manifest(manifest) == []
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["seeds"] == [21]
        assert manifest["workers"] == 2
        assert manifest["wall_time_s"] == 1.234

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            build_manifest(config={})

    def test_git_rev_in_this_repo(self):
        rev = git_rev()
        assert rev == "unknown" or len(rev) == 40

    def test_git_rev_outside_repo(self, tmp_path):
        assert git_rev(repo_dir=tmp_path) == "unknown"

    def test_stamp_attaches_and_returns_payload(self):
        payload = {"bench": "x"}
        assert stamp(payload, _manifest()) is payload
        assert validate_manifest(payload["manifest"]) == []

    def test_manifest_json_is_parseable(self):
        parsed = json.loads(manifest_json(_manifest()))
        assert validate_manifest(parsed) == []


class TestValidate:
    def test_non_mapping(self):
        assert validate_manifest(None)
        assert validate_manifest([1, 2])

    def test_missing_field_named(self):
        manifest = _manifest()
        del manifest["git_rev"]
        (error,) = validate_manifest(manifest)
        assert "git_rev" in error

    def test_wrong_type_named(self):
        errors = validate_manifest(_manifest(workers="three"))
        assert any("workers" in e for e in errors)

    def test_bool_is_not_an_int(self):
        errors = validate_manifest(_manifest(workers=True))
        assert any("workers" in e for e in errors)

    def test_newer_schema_rejected(self):
        errors = validate_manifest(
            _manifest(schema_version=MANIFEST_SCHEMA_VERSION + 1))
        assert any("schema_version" in e for e in errors)

    def test_nonpositive_workers_rejected(self):
        assert validate_manifest(_manifest(workers=0))

    def test_empty_config_rejected(self):
        assert validate_manifest(_manifest(config={}))
