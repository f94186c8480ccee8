package namespace

import "testing"

func TestCleanPath(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"/", "/", false},
		{"/a", "/a", false},
		{"/a/b/c", "/a/b/c", false},
		{"/a/", "/a", false},
		{"//a", "/a", false},
		{"/a/b//", "/a/b", false},
		{"///", "", true},
		{"/.", "", true},
		{"/a//b", "", true},
		{"relative", "", true},
		{"", "", true},
		{"/a/./b", "", true},
		{"/a/../b", "", true},
	}
	for _, tt := range tests {
		got, err := CleanPath(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("CleanPath(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("CleanPath(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestPathHelpers(t *testing.T) {
	if got := SplitPath("/"); len(got) != 0 {
		t.Errorf("SplitPath(/) = %v, want empty", got)
	}
	if got := SplitPath("/a/b"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("SplitPath(/a/b) = %v", got)
	}
	if got := ParentPath("/a/b"); got != "/a" {
		t.Errorf("ParentPath(/a/b) = %q", got)
	}
	if got := ParentPath("/a"); got != "/" {
		t.Errorf("ParentPath(/a) = %q", got)
	}
	if got := ParentPath("/"); got != "/" {
		t.Errorf("ParentPath(/) = %q", got)
	}
	if got := BaseName("/a/b"); got != "b" {
		t.Errorf("BaseName(/a/b) = %q", got)
	}
	if got := BaseName("/"); got != "" {
		t.Errorf("BaseName(/) = %q", got)
	}
	if got := JoinPath("/", "x"); got != "/x" {
		t.Errorf("JoinPath(/, x) = %q", got)
	}
	if got := JoinPath("/a", "x"); got != "/a/x" {
		t.Errorf("JoinPath(/a, x) = %q", got)
	}
}

func TestIsAncestor(t *testing.T) {
	tests := []struct {
		dir, p string
		want   bool
	}{
		{"/", "/anything", true},
		{"/a", "/a", true},
		{"/a", "/a/b", true},
		{"/a", "/ab", false},
		{"/a/b", "/a", false},
	}
	for _, tt := range tests {
		if got := IsAncestor(tt.dir, tt.p); got != tt.want {
			t.Errorf("IsAncestor(%q, %q) = %v, want %v", tt.dir, tt.p, got, tt.want)
		}
	}
}
