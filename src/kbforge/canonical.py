"""Bundled reference data: canonical KB texts, attack feature profiles, and
the accuracy grids shipped for the KB-selection examples and tests.

The canonical KB texts are frozen artifacts, preserved byte-for-byte
(including a few typographical quirks such as a stray quote and a missing
colon) so that goldens never depend on dataset availability. The profile
table records each flood class's characteristic feature ranges as
(min, median, max) triples; it drives the synthetic generator and the rule
oracle's structured constraints.
"""

from __future__ import annotations

from .flow_data import AttackLabel
from .profile import AttackProfile, FeatureProfile

# ---------------------------------------------------------------------------
# Canonical long knowledge base (four flood classes with detailed ranges).
# ---------------------------------------------------------------------------

LONG_KB_TEXT: dict[AttackLabel, str] = {
    AttackLabel.ICMP_FLOOD: (
        "If the attack is DDoS ICMP flood, it should exhibit the following characteristics:\n"
        "- Protocol Type: Has to be 1.0 for ICMP.\n"
        "- ICMP Indicator: Has to be 1.0 for ICMP.\n"
        "- Min Packet Size: Ranges from 42.0 to 992.72, commonly at 42.0.\n"
        "- Magnitude: Intensity ranges from 9.17 to 59.80, with a typical value near 9.17.\n"
        "- Average Packet Size (AVG): Spans from 42.0 to 1885.5, often around 42.0.\n"
        "- Total Sum of Packets (Tot sum): Between 42.0 and 19764.8, commonly near 441.0.\n"
        "- Max Packet Size: Has to be around 42.0.\n"
        "- Total Size of Packets (Tot size): Has to be 42.0.\n"
        "- Inter-Arrival Time (IAT): Very high, between 0.0 and 100179851.34, "
        "with a median around 83128994.35."
    ),
    AttackLabel.UDP_FLOOD: (
        "If the attack is DDoS UDP flood, it should exhibit the following characteristics:\n"
        "- Protocol Type: Close to 17.0, corresponding to the UDP protocol.\n"
        '- UDP Indicator: Must be 1.0, confirming the presence of UDP packets."\n'
        "- Inter-Arrival Time (IAT): Extremely varied, ranging from 4.39e-06 to 99748506.47, "
        "with a typical value around 83102993.47, reflecting high-frequency bursts.\n"
        "- Rate and Source Rate (Srate): Both range from 6.01 to 1569352.19, with a common "
        "value near 7480.80, indicating high packet transmission volumes.\n"
        "- Magnitude: Represents traffic intensity, ranging from 9.97 to 41.16, "
        "typically about 10.0.\n"
        "- Minimum Packet Size (Min): Between 48.74 and 468.37, commonly close to 50.0, "
        "reflecting packet-level characteristics.\n"
        "- Total Packet Size (Tot size): Spans from 49.88 to 1075.46, with a frequent "
        "value near 50.0.\n"
        "- Total Sum of Packets (Tot sum): Ranges from 150.0 to 11576.45, with a typical "
        "value around 525.0, capturing the cumulative packet behavior."
    ),
    AttackLabel.TCP_FLOOD: (
        "If the attack is DDoS TCP flood, it should exhibit the following characteristics:\n"
        "- Protocol Type: Close to 6.0, corresponding to the TCP protocol.\n"
        "- PSH Flag Number: Should be 0.0, reflecting minimal push flags in typical "
        "TCP flood behavior.\n"
        "- TCP Indicator: Often 1.0, confirming the use of the TCP protocol.\n"
        "- URG Count: Typically 0.0, indicating no urgency flags in normal TCP traffic.\n"
        "- SYN Flag Number: Typically 0.0, showing the absence or minimal use of SYN flags "
        "in regular traffic.\n"
        "- Flow Duration: Ranges from 0.0 to 1270.90 seconds, often 0.0 in shorter-lived "
        "connections characteristic of flood traffic.\n"
        "- FIN Count: Typically 0.0, but can reach up to 0.45 in some TCP exchanges.\n"
        "- ACK Flag Number: Mostly 0.0, indicating limited acknowledgment flags in standard "
        "TCP flood traffic."
    ),
    AttackLabel.PSHACK_FLOOD: (
        "If the attack is DDoS PSHACK flood, it should exhibit the following characteristics:\n"
        "- PSH Flag Number: Must be 1.0, indicating the presence of single push flags "
        "in the traffic.\n"
        "- ACK Flag Number: Often 1.0, but can occasionally be 0.0, distinguishing it "
        "from other TCP floods.\n"
        "- URG Count: Typically 1.0 but can reach up to 367.51, reflecting the occasional "
        "use of urgency flags.\n"
        "- RST Count: Usually 1.0, highlighting the frequent use of reset flags in the attack.\n"
        "- Inter-Arrival Time (IAT): Ranges from 1.50e-05 to 99998229.53, with a common value "
        "around 83318215.96, indicating high-frequency bursts.\n"
        "- Total Packet Size (Tot size): Between 53.76 and 1177.9, typically around 54.0, "
        "showing consistent packet sizes.\n"
        "- Magnitude: Varies in intensity from 10.33 to 40.65, with a common value near 10.39.\n"
        "- Average Packet Size (AVG): Ranges from 53.34 to 1079.47, often close to 54.0, "
        "showing consistent averages.\n"
        "- Maximum Packet Size (Max): Spans from 53.76 to 3022.11, with typical values "
        "around 54.0."
    ),
}

# ---------------------------------------------------------------------------
# Canonical short knowledge base (one line per flood class).
# ---------------------------------------------------------------------------

SHORT_KB_TEXT: dict[AttackLabel, str] = {
    AttackLabel.ICMP_FLOOD: (
        "DDoS-ICMP_Flood: Protocol: ICMP; High packet rate; Low Inter-Arrival Time (IAT)."
    ),
    AttackLabel.UDP_FLOOD: "DDoS-UDP_Flood: Protocol: UDP; High packet rate; Low IAT.",
    AttackLabel.TCP_FLOOD: "DDoS-TCP_Flood: Protocol: TCP; High packet rate; Elevated SYN flag.",
    AttackLabel.PSHACK_FLOOD: "DDoS-PSHACK_Flood: Elevated PSH and ACK flags.",
    AttackLabel.SYN_FLOOD: "DDoS-SYN_Flood Elevated SYN flag.",
    AttackLabel.RSTFIN_FLOOD: "DDoS-RSTFIN_Flood: Elevated RST and FIN flags.",
    AttackLabel.SYNONYMOUS_IP_FLOOD: (
        "DDoS-SynonymousIP_Flood: Multiple source IPs; High SYN counts."
    ),
}

# ---------------------------------------------------------------------------
# Reference feature profiles per flood class.
#
# Triples are (min, median, max); min == median == max marks a feature the
# class pins exactly (a mandatory constraint for the rule oracle).
# ---------------------------------------------------------------------------

_P = FeatureProfile

_REFERENCE_STATS: dict[AttackLabel, tuple[FeatureProfile, ...]] = {
    AttackLabel.ICMP_FLOOD: (
        _P("Protocol Type", 1.0, 1.0, 1.0),
        _P("ICMP", 1.0, 1.0, 1.0),
        _P("Min", 42.0, 42.0, 992.72),
        _P("Magnitude", 9.17, 9.17, 59.80),
        _P("AVG", 42.0, 42.0, 1885.5),
        _P("Tot sum", 42.0, 441.0, 19764.8),
        _P("Max", 42.0, 42.0, 42.0),
        _P("Tot size", 42.0, 42.0, 42.0),
        _P("IAT", 0.0, 83128994.35, 100179851.34),
    ),
    AttackLabel.UDP_FLOOD: (
        _P("Protocol Type", 4.84, 17.0, 17.0),
        _P("UDP", 1.0, 1.0, 1.0),
        _P("IAT", 4.39e-06, 83102993.47, 99748506.47),
        _P("Rate", 6.01, 7480.80, 1569352.19),
        _P("Srate", 6.01, 7480.80, 1569352.19),
        _P("Magnitude", 9.97, 10.0, 41.16),
        _P("Min", 48.74, 50.0, 468.37),
        _P("Tot size", 49.88, 50.0, 1075.46),
        _P("Tot sum", 150.0, 525.0, 11576.45),
    ),
    AttackLabel.TCP_FLOOD: (
        _P("Protocol Type", 6.0, 6.0, 6.0),
        _P("PSH Flag Number", 0.0, 0.0, 0.0),
        _P("TCP", 0.0, 1.0, 1.0),
        _P("URG Count", 0.0, 0.0, 0.0),
        _P("SYN Flag Number", 0.0, 0.0, 0.0),
        _P("Flow Duration", 0.0, 0.0, 1270.90),
        _P("FIN Count", 0.0, 0.0, 0.45),
        _P("ACK Flag Number", 0.0, 0.0, 0.0),
    ),
    AttackLabel.PSHACK_FLOOD: (
        _P("PSH Flag Number", 1.0, 1.0, 1.0),
        _P("ACK Flag Number", 0.0, 1.0, 1.0),
        _P("URG Count", 0.0, 1.0, 367.51),
        _P("RST Count", 0.0, 1.0, 472.02),
        _P("IAT", 1.50e-05, 83318215.96, 99998229.53),
        _P("Tot size", 53.76, 54.0, 1177.9),
        _P("Magnitude", 10.33, 10.39, 40.65),
        _P("AVG", 53.34, 54.0, 1079.47),
        _P("Max", 53.76, 54.0, 3022.11),
    ),
}

REFERENCE_PROFILES: dict[AttackLabel, AttackProfile] = {
    label: AttackProfile(attack=label, ranked_features=stats, k=10)
    for label, stats in _REFERENCE_STATS.items()
}

#: Every feature that appears in some reference profile (registry order is
#: imposed where it matters; this is the lookup set).
PROFILED_FEATURES: frozenset[str] = frozenset(
    fp.feature for profile in REFERENCE_PROFILES.values() for fp in profile.ranked_features
)

# ---------------------------------------------------------------------------
# Reference accuracy grids (per-class accuracy fractions) for five local
# models under the three KB configurations. Used by the KB-selection tests
# and as a demo input for the `select` subcommand.
# ---------------------------------------------------------------------------

#: model name -> attack -> (no_kb, long_kb, short_kb) accuracy fractions.
REFERENCE_ACCURACY: dict[str, dict[AttackLabel, tuple[float, float, float]]] = {
    "llama3.1:8b": {
        AttackLabel.ICMP_FLOOD: (0.9780, 1.0000, 0.8380),
        AttackLabel.UDP_FLOOD: (0.5640, 0.8660, 0.7660),
        AttackLabel.TCP_FLOOD: (0.7740, 0.0360, 0.7780),
        AttackLabel.PSHACK_FLOOD: (0.0320, 0.5940, 0.5480),
    },
    "phi3:medium": {
        AttackLabel.ICMP_FLOOD: (0.5040, 0.4240, 0.2740),
        AttackLabel.UDP_FLOOD: (0.3920, 0.3140, 0.5980),
        AttackLabel.TCP_FLOOD: (0.1060, 0.1680, 0.0600),
        AttackLabel.PSHACK_FLOOD: (0.1020, 0.1780, 0.2860),
    },
    "gemma2:9b": {
        AttackLabel.ICMP_FLOOD: (0.2040, 1.0000, 0.2000),
        AttackLabel.UDP_FLOOD: (0.0180, 1.0000, 0.4880),
        AttackLabel.TCP_FLOOD: (0.0000, 0.0000, 0.0000),
        AttackLabel.PSHACK_FLOOD: (0.0320, 0.3520, 0.1500),
    },
    "llama3.2:3b": {
        AttackLabel.ICMP_FLOOD: (0.2820, 0.4200, 0.5240),
        AttackLabel.UDP_FLOOD: (0.3880, 0.2340, 0.5380),
        AttackLabel.TCP_FLOOD: (0.2260, 0.2780, 0.5340),
        AttackLabel.PSHACK_FLOOD: (0.0160, 0.0340, 0.3880),
    },
    "phi3:mini": {
        AttackLabel.ICMP_FLOOD: (0.0665, 0.0960, 0.1320),
        AttackLabel.UDP_FLOOD: (0.0097, 0.0420, 0.2220),
        AttackLabel.TCP_FLOOD: (0.0097, 0.0420, 0.2220),
        AttackLabel.PSHACK_FLOOD: (0.0019, 0.0000, 0.0300),
    },
}
