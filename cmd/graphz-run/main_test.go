package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles graphz-run once per test binary into a temp dir.
func buildCmd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the command")
	}
	bin := filepath.Join(t.TempDir(), "graphz-run")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-run %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// topBlock isolates the result listing, the part that must be identical
// across reruns and resumes.
func topBlock(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "  top ")
	if i < 0 {
		t.Fatalf("no top-vertices block in output:\n%s", out)
	}
	return out[i:]
}

func TestGeneratedRunReproducibleBySeed(t *testing.T) {
	bin := buildCmd(t)
	args := []string{"-gen", "rmat", "-gen-scale", "8", "-gen-edges", "1500", "-seed", "7", "-algo", "cc"}
	a := runCmd(t, bin, args...)
	b := runCmd(t, bin, args...)
	if a != b {
		t.Fatalf("same seed, different output:\n--- first\n%s--- second\n%s", a, b)
	}
	other := runCmd(t, bin, "-gen", "rmat", "-gen-scale", "8", "-gen-edges", "1500", "-seed", "8", "-algo", "cc")
	if topBlock(t, a) == topBlock(t, other) {
		t.Fatal("different seeds produced identical results")
	}
}

func TestCheckpointResumeMatches(t *testing.T) {
	bin := buildCmd(t)
	ckdir := filepath.Join(t.TempDir(), "ck")
	args := []string{"-gen", "rmat", "-gen-scale", "8", "-gen-edges", "1500", "-seed", "7", "-algo", "cc", "-checkpoint-dir", ckdir}
	first := runCmd(t, bin, args...)
	if !strings.Contains(first, "checkpoint: ") {
		t.Fatalf("no checkpoint summary in output:\n%s", first)
	}
	if ents, err := os.ReadDir(ckdir); err != nil || len(ents) == 0 {
		t.Fatalf("checkpoint dir empty (err=%v)", err)
	}
	resumed := runCmd(t, bin, append(args, "-resume")...)
	if !strings.Contains(resumed, "checkpoint: resuming from iteration ") {
		t.Fatalf("resume did not pick up the checkpoint:\n%s", resumed)
	}
	if topBlock(t, first) != topBlock(t, resumed) {
		t.Fatalf("resumed results differ:\n--- first\n%s--- resumed\n%s", first, resumed)
	}
}

func TestCheckpointFlagsRejectedForOtherEngines(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-gen", "grid", "-gen-vertices", "8", "-algo", "pr",
		"-engine", "xstream", "-checkpoint-dir", t.TempDir()).CombinedOutput()
	if err == nil {
		t.Fatalf("xstream with -checkpoint-dir should fail, got:\n%s", out)
	}
	if !strings.Contains(string(out), "-engine graphz") {
		t.Fatalf("unhelpful error:\n%s", out)
	}
}
