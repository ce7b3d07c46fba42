package lintrules_test

import (
	"testing"

	"stochstream/internal/lintrules"
	"stochstream/internal/lintrules/analysistest"
)

func TestFingerprintcover(t *testing.T) {
	analysistest.Run(t, testdata(t), lintrules.Fingerprintcover, "fingerprintcover")
}

func TestFingerprintcoverMissingFingerprint(t *testing.T) {
	analysistest.Run(t, testdata(t), lintrules.Fingerprintcover, "fingerprintcover/nofp")
}

func TestWirexhaustiveEndpoints(t *testing.T) {
	analysistest.Run(t, testdata(t), lintrules.Wirexhaustive, "wirexhaustive")
}
