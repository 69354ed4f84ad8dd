"""Schema-marked ``as_dict`` exports of the two report types."""

import json

from repro.diagnosis.evaluate import CampaignResult
from repro.dictionaries import BuildReport


class TestBuildReportSchemas:
    def _report(self):
        return BuildReport(
            n_faults=5,
            distinguished_procedure1=7,
            distinguished_procedure2=9,
            procedure1_calls=3,
            replacements=1,
        )

    def test_schema_3_is_the_default_and_marked(self):
        data = self._report().as_dict()
        assert data["schema"] == 3
        assert data["classes_after_procedure1"] == 0
        assert data["classes_after_procedure2"] == 0

    def test_derived_counts_present(self):
        data = self._report().as_dict()
        assert data["indistinguished_procedure1"] == 10 - 7
        assert data["indistinguished_procedure2"] == 10 - 9
        assert data["procedure2_improved"] is True
        json.dumps(data)


class TestCampaignResultSchemas:
    def _result(self):
        result = CampaignResult("full")
        result.injections = 4
        result.unique = 2
        result.candidate_sizes = [1, 1, 2, 3]
        result.hits_at_1 = 3
        result.hits_at_10 = 4
        return result

    def test_schema_2_marked_and_normalised_keys(self):
        data = self._result().as_dict()
        assert data["schema"] == 2
        assert data["unique_fraction"] == 0.5
        assert data["mean_candidates"] == 1.75
        assert data["top1_accuracy"] == 0.75
        assert data["top10_accuracy"] == 1.0
        json.dumps(data)
