"""Value types of the run config, with no numpy: the CLI parses and checks a
config on these alone. The pipeline modules import them, so names such as
`forest_rank.ForestParams` and `detectors.LlmEndpointConfig` give these classes."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from urllib.parse import urlsplit


@dataclass(frozen=True)
class ForestParams:
    num_trees: int = 100
    max_depth: int = 12
    min_samples_leaf: int = 5
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass(frozen=True)
class RuleOracleConfig:
    min_score: float = 0.5
    mandatory_strict: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError("min_score must lie in [0, 1]")


@dataclass(frozen=True)
class LlmEndpointConfig:
    base_url: str = "http://localhost:11434"
    model_name: str = "llama3.1:8b"
    request_timeout_s: float = 60.0
    max_retries: int = 2
    temperature: float = 0.0
    api: str = "generate"  # "generate" (Ollama) or "chat" (chat completions)
    max_in_flight: int = 4
    backoff_base_s: float = field(default=0.25, metadata={"config": False})  # tuned in code, no config key

    def __post_init__(self) -> None:
        url = urlsplit(self.base_url)
        # url.port itself raises ValueError for a port that is not a number in range.
        if url.scheme not in ("http", "https") or not url.hostname or url.port == 0:
            raise ValueError("base_url must be an http:// or https:// URL with a host")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.api not in ("generate", "chat"):
            raise ValueError("api must be 'generate' or 'chat'")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


class KbSource(Enum):
    CANONICAL = "canonical"
    GENERATED = "generated"


class KbConfig(Enum):
    NO_KB = "no_kb"
    LONG_KB = "long_kb"
    SHORT_KB = "short_kb"

    def display(self) -> str:
        return {"no_kb": "No KB", "long_kb": "Long KB", "short_kb": "Short KB"}[self.value]


class DescribeMode(Enum):
    NUMERIC = "numeric"
    QUALITATIVE = "qualitative"
