package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"melody"
	"melody/internal/obs"
)

// Duration is a time.Duration that round-trips through JSON as a Go
// duration string ("250ms", "1m30s"); bare numbers decode as nanoseconds
// for compatibility with time.Duration's native encoding.
type Duration time.Duration

// MarshalJSON encodes the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON decodes a duration string or a nanosecond count.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		parsed, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("platform: invalid duration %q: %w", x, err)
		}
		*d = Duration(parsed)
	case float64:
		*d = Duration(time.Duration(x))
	default:
		return fmt.Errorf("platform: invalid duration %v (want a string like \"250ms\")", v)
	}
	return nil
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Config is the full configuration of a melody-platform process — every
// knob cmd/melody-platform exposes as a flag, in one typed, JSON-loadable
// struct. The binary resolves its configuration in three layers:
// DefaultConfig, then a -config JSON file, then explicit command-line
// flags, and logs the resolved result at startup.
type Config struct {
	// Addr is the public API listen address.
	Addr string `json:"addr"`

	// Mechanism qualification intervals (Theta_m/Theta_M, C_m/C_M).
	QualityMin float64 `json:"qualityMin"`
	QualityMax float64 `json:"qualityMax"`
	CostMin    float64 `json:"costMin"`
	CostMax    float64 `json:"costMax"`

	// Quality-tracker priors and EM cadence.
	InitMean float64 `json:"initMean"`
	InitVar  float64 `json:"initVar"`
	EMPeriod int     `json:"emPeriod"`

	// Durability: single-file WAL or segmented engine (mutually
	// exclusive), plus the segmented engine's tuning and replication.
	WAL           string `json:"wal,omitempty"`
	WALDir        string `json:"walDir,omitempty"`
	SegmentBytes  int64  `json:"segmentBytes"`
	SnapshotEvery int    `json:"snapshotEvery"`
	NoCompaction  bool   `json:"noCompaction,omitempty"`
	ReplicaOf     string `json:"replicaOf,omitempty"`
	ReplicaID     string `json:"replicaID,omitempty"`
	Promote       bool   `json:"promote,omitempty"`

	// Admission control (see AdmissionConfig).
	MaxInFlight    int      `json:"maxInFlight,omitempty"`
	AnswerInFlight int      `json:"answerInFlight,omitempty"`
	AdmissionQueue int      `json:"admissionQueue,omitempty"`
	QueueTimeout   Duration `json:"queueTimeout,omitempty"`
	TenantRate     float64  `json:"tenantRate,omitempty"`
	TenantBurst    float64  `json:"tenantBurst,omitempty"`
	RetryAfter     Duration `json:"retryAfter,omitempty"`

	// Run scheduler.
	EpochEvery       int     `json:"epochEvery,omitempty"`
	Fund             float64 `json:"fund,omitempty"`
	RegistryShards   int     `json:"registryShards,omitempty"`
	CloseConcurrency int     `json:"closeConcurrency,omitempty"`
	// Tenants pre-provisions tenant policies at boot (config file only —
	// there is no flag form). Policies from a recovered WAL replay after
	// and therefore override these boot values, so a runtime PUT survives
	// a restart.
	Tenants map[string]TenantPolicySpec `json:"tenants,omitempty"`

	// Run-phase watchdogs.
	BidDeadline   Duration `json:"bidDeadline,omitempty"`
	ScoreDeadline Duration `json:"scoreDeadline,omitempty"`

	// Operability: fault injection, side listeners, tracing, logging.
	Chaos         string `json:"chaos,omitempty"`
	PprofAddr     string `json:"pprof,omitempty"`
	MetricsAddr   string `json:"metrics,omitempty"`
	TraceCapacity int    `json:"traceCapacity"`
	LogLevel      string `json:"logLevel"`
}

// DefaultConfig returns the built-in defaults, identical to the historical
// flag defaults.
func DefaultConfig() Config {
	return Config{
		Addr:          "127.0.0.1:8080",
		QualityMin:    1,
		QualityMax:    10,
		CostMin:       1,
		CostMax:       2,
		InitMean:      5.5,
		InitVar:       2.25,
		EMPeriod:      10,
		SegmentBytes:  64 << 20, // eventlog.DefaultSegmentBytes, duplicated so platform stays independent of the storage engine
		SnapshotEvery: 10000,
		TraceCapacity: 1024,
		LogLevel:      "info",
	}
}

// Auction returns the mechanism's qualification box
// [QualityMin, QualityMax] x [CostMin, CostMax].
func (c Config) Auction() melody.AuctionConfig {
	return melody.AuctionConfig{
		QualityMin: c.QualityMin, QualityMax: c.QualityMax,
		CostMin: c.CostMin, CostMax: c.CostMax,
	}
}

// Tracker returns the deployed quality tracker's settings: the prior
// N(InitMean, InitVar), theta^0 = {a 1, gamma 0.3, eta 9}, and EM every
// EMPeriod runs over the latest 60 runs with the default EM settings.
// metrics may be nil.
func (c Config) Tracker(metrics *obs.Registry) melody.QualityTrackerConfig {
	return melody.QualityTrackerConfig{
		InitialMean: c.InitMean,
		InitialVar:  c.InitVar,
		Params:      melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod:    c.EMPeriod,
		EMWindow:    60,
		Metrics:     metrics,
	}
}

// LoadConfig reads a JSON config file over the defaults, rejecting unknown
// fields so typos fail loudly instead of silently running with defaults.
func LoadConfig(path string) (Config, error) {
	cfg := DefaultConfig()
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, fmt.Errorf("platform: read config: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("platform: parse config %s: %w", path, err)
	}
	return cfg, nil
}

// Validate rejects inconsistent combinations, mirroring the historical
// flag-validation rules.
func (c Config) Validate() error {
	switch {
	case c.WAL != "" && c.WALDir != "":
		return errors.New("wal and walDir are mutually exclusive")
	case c.ReplicaOf != "" && c.WALDir == "":
		return errors.New("replicaOf requires walDir (the local mirror directory)")
	case c.ReplicaOf != "" && c.Promote:
		return errors.New("replicaOf and promote are mutually exclusive: stop following before promoting")
	case c.Promote && c.WALDir == "":
		return errors.New("promote requires walDir (the replica's data directory)")
	case c.EpochEvery > 0 && c.Fund <= 0:
		return errors.New("epochEvery requires fund (epoch settlement aggregates ledger payouts)")
	}
	return nil
}

// String renders the resolved configuration as one JSON line for the
// startup log.
func (c Config) String() string {
	out, err := json.Marshal(c)
	if err != nil {
		return fmt.Sprintf("%+v", struct{ Config }{c})
	}
	return string(out)
}
