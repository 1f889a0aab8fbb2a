package platform

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "melody.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadConfigLayersOverDefaults: fields absent from the file keep their
// defaults, present ones override, and tenant policies parse into typed
// specs.
func TestLoadConfigLayersOverDefaults(t *testing.T) {
	path := writeConfig(t, `{
		"addr": "127.0.0.1:9999",
		"epochEvery": 4,
		"fund": 1000,
		"closeConcurrency": 2,
		"queueTimeout": "250ms",
		"retryAfter": 50000000,
		"tenants": {
			"acme": {"budgetQuota": 500, "maxRuns": 10, "weight": 2},
			"free": {"budgetQuota": 0}
		}
	}`)
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "127.0.0.1:9999" || cfg.EpochEvery != 4 || cfg.CloseConcurrency != 2 {
		t.Fatalf("overridden fields wrong: %+v", cfg)
	}
	def := DefaultConfig()
	if cfg.QualityMin != def.QualityMin || cfg.SegmentBytes != def.SegmentBytes || cfg.LogLevel != def.LogLevel {
		t.Fatalf("untouched fields lost their defaults: %+v", cfg)
	}
	if cfg.QueueTimeout.Std() != 250*time.Millisecond {
		t.Errorf("queueTimeout = %v, want 250ms (duration string form)", cfg.QueueTimeout.Std())
	}
	if cfg.RetryAfter.Std() != 50*time.Millisecond {
		t.Errorf("retryAfter = %v, want 50ms (nanosecond number form)", cfg.RetryAfter.Std())
	}
	acme := cfg.Tenants["acme"].Policy()
	if acme.BudgetQuota != 500 || acme.MaxRuns != 10 || acme.Weight != 2 {
		t.Errorf("acme policy = %+v", acme)
	}
	free := cfg.Tenants["free"].Policy()
	if free.BudgetQuota != 0 || free.EpochBudgetQuota >= 0 {
		t.Errorf("explicit zero quota must stay 0 with epoch quota unlimited: %+v", free)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestLoadConfigRejectsUnknownFields: typos fail loudly.
func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	path := writeConfig(t, `{"adress": "127.0.0.1:9999"}`)
	if _, err := LoadConfig(path); err == nil || !strings.Contains(err.Error(), "adress") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

// TestConfigValidate pins the inconsistent-combination rules.
func TestConfigValidate(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"wal and walDir", func(c *Config) { c.WAL = "a.wal"; c.WALDir = "d" }},
		{"replica without walDir", func(c *Config) { c.ReplicaOf = "host:1" }},
		{"epochs without funding", func(c *Config) { c.EpochEvery = 2 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	ok := base
	ok.EpochEvery = 2
	ok.Fund = 100
	ok.CloseConcurrency = 1
	ok.Tenants = map[string]TenantPolicySpec{"a": {Weight: 2}}
	ok.WALDir = "d"
	if err := ok.Validate(); err != nil {
		t.Errorf("consistent tenant config on the segmented engine rejected: %v", err)
	}
}

// TestConfigStringRoundTrips: the startup log line is valid JSON that
// LoadConfig would accept back.
func TestConfigStringRoundTrips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpochEvery = 3
	cfg.QueueTimeout = Duration(300 * time.Millisecond)
	path := writeConfig(t, cfg.String())
	back, err := LoadConfig(path)
	if err != nil {
		t.Fatalf("String() output rejected by LoadConfig: %v", err)
	}
	if back.QueueTimeout != cfg.QueueTimeout || back.EpochEvery != cfg.EpochEvery || back.Addr != cfg.Addr {
		t.Errorf("round trip diverged: %+v vs %+v", back, cfg)
	}
}
