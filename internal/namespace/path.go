// Package namespace implements the OctopusFS directory namespace
// managed by each Primary Master (paper §2.1): a hierarchical inode
// tree with the usual open/close/delete/rename operations, per-tier
// storage quotas for multi-tenancy, a write-ahead edit log, and
// fsimage checkpoints from which Backup Masters restart the system.
package namespace

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Separator is the path separator.
const Separator = "/"

// CleanPath validates and canonicalises an absolute namespace path:
// it must start with "/", contain no empty, "." or ".." components,
// and is returned without a trailing slash ("/" itself excepted).
func CleanPath(p string) (string, error) {
	if !strings.HasPrefix(p, Separator) {
		return "", fmt.Errorf("namespace: path %q is not absolute: %w", p, core.ErrNotFound)
	}
	if p == Separator {
		return p, nil
	}
	trimmed := strings.Trim(p, Separator)
	for rest, more := trimmed, true; more; {
		var part string
		if part, rest, more = strings.Cut(rest, Separator); part == "" || part == "." || part == ".." {
			return "", fmt.Errorf("namespace: path %q has invalid component %q: %w", p, part, core.ErrNotFound)
		}
	}
	if len(trimmed) == len(p)-1 {
		return p, nil // already clean: no copy
	}
	return Separator + trimmed, nil
}

// SplitPath splits a cleaned path into its components; the root path
// yields an empty slice.
func SplitPath(p string) []string {
	if p == Separator {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, Separator), Separator)
}

// ParentPath returns the parent of a cleaned path ("/" for top-level
// entries and for the root itself).
func ParentPath(p string) string {
	idx := strings.LastIndex(p, Separator)
	if idx <= 0 {
		return Separator
	}
	return p[:idx]
}

// BaseName returns the final component of a cleaned path ("" for the
// root).
func BaseName(p string) string {
	if p == Separator {
		return ""
	}
	return p[strings.LastIndex(p, Separator)+1:]
}

// JoinPath joins a cleaned directory path with a child name.
func JoinPath(dir, name string) string {
	if dir == Separator {
		return Separator + name
	}
	return dir + Separator + name
}

// IsAncestor reports whether dir is an ancestor of (or equal to) p.
func IsAncestor(dir, p string) bool {
	if dir == Separator {
		return true
	}
	return p == dir || strings.HasPrefix(p, dir+Separator)
}
