package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc/<pid>/status; pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("reading peak RSS: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/%s/status", pid)
}

// childSysProc makes cmd's process die with this one, so an interrupted
// benchmark never leaves a server or pipeline child behind.
func childSysProc(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// buildServer compiles the unmodified cmd/tsexplain-server from the
// repository at root into out. Build time is not part of any metric.
func buildServer(root, out string) (string, error) {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/tsexplain-server")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building tsexplain-server: %v\n%s", err, b)
	}
	return out, nil
}
