package serve

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the running binary: module version, Go toolchain,
// and the VCS state the Go linker bakes in (debug.ReadBuildInfo). GET
// /healthz reports it so operators can tell exactly what a daemon is
// running without shelling into its host.
type BuildInfo struct {
	Version     string `json:"version"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

var (
	buildOnce   sync.Once
	buildCached BuildInfo
)

// Build reports the binary's build identity. The underlying read happens
// once per process; binaries built without module metadata (test harnesses,
// go run of a lone file) still report the toolchain version.
func Build() BuildInfo {
	buildOnce.Do(func() {
		buildCached = BuildInfo{Version: "(devel)", GoVersion: runtime.Version()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Version != "" {
			buildCached.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildCached.VCSRevision = s.Value
			case "vcs.time":
				buildCached.VCSTime = s.Value
			case "vcs.modified":
				buildCached.VCSModified = s.Value == "true"
			}
		}
	})
	return buildCached
}
